package params

import (
	"strings"
	"testing"
)

func TestParseAndAccessors(t *testing.T) {
	kind, p, err := Parse("er:n=100,p=0.5,seed=7,chunks=16")
	if err != nil {
		t.Fatal(err)
	}
	if kind != "er" {
		t.Fatalf("kind = %q", kind)
	}
	if n, err := p.Int64("n", -1); err != nil || n != 100 {
		t.Fatalf("n = %d, %v", n, err)
	}
	if v, err := p.Float("p", 0); err != nil || v != 0.5 {
		t.Fatalf("p = %v, %v", v, err)
	}
	if s, err := p.Seed(); err != nil || s != 7 {
		t.Fatalf("seed = %d, %v", s, err)
	}
	if c, err := p.Int("chunks", 0); err != nil || c != 16 {
		t.Fatalf("chunks = %d, %v", c, err)
	}
	if err := p.CheckUnused("er"); err != nil {
		t.Fatalf("all keys consumed but CheckUnused = %v", err)
	}
}

func TestUnusedKeysReported(t *testing.T) {
	_, p, err := Parse("x:a=1,b=2,c=3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Int("a", 0); err != nil {
		t.Fatal(err)
	}
	got := p.Unused()
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("Unused = %v, want [b c]", got)
	}
	if err := p.CheckUnused("x"); err == nil || !strings.Contains(err.Error(), "unknown parameters") {
		t.Fatalf("CheckUnused = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := Parse("er:n=1,junk"); err == nil {
		t.Error("malformed pair accepted")
	}
	// A repeated or empty key is never resolved by guessing which value
	// was meant, in either surface form.
	for _, bad := range []string{"er:n=10,n=20", "er(n=10;p=0.5;n=20)", "er:=5", "er:n=10,=5", "er:n=10,"} {
		if _, _, err := Parse(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	_, p, err := Parse("er:n=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Int("n", -1); err == nil {
		t.Error("non-numeric int accepted")
	}
	if _, err := p.Int64("missing", -1); err == nil {
		t.Error("missing required key accepted")
	}
	if v, err := p.Float("absent", 2.5); err != nil || v != 2.5 {
		t.Errorf("default float = %v, %v", v, err)
	}
	if s, err := p.Seed(); err != nil || s != 1 {
		t.Errorf("default seed = %d, %v", s, err)
	}
}

func TestKindOnlySpec(t *testing.T) {
	kind, p, err := Parse("clique")
	if err != nil {
		t.Fatal(err)
	}
	if kind != "clique" {
		t.Fatalf("kind = %q", kind)
	}
	if err := p.CheckUnused("clique"); err != nil {
		t.Fatal(err)
	}
}

func TestFloatReq(t *testing.T) {
	_, p, err := Parse("rgg:n=10,r=0.25")
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.FloatReq("r")
	if err != nil || r != 0.25 {
		t.Fatalf("FloatReq(r) = %v, %v", r, err)
	}
	if _, err := p.FloatReq("missing"); err == nil {
		t.Error("missing required float accepted")
	}
	if stray := p.Unused(); len(stray) != 1 || stray[0] != "n" {
		t.Errorf("Unused after FloatReq = %v, want [n]", stray)
	}
}

// TestParenSpecAlias pins the KaGen-style surface form: kind(k=v;k=v)
// must parse identically to kind:k=v,k=v, and strings that merely
// contain parentheses after a colon must not be rewritten.
func TestParenSpecAlias(t *testing.T) {
	kind, p, err := Parse("rgg2d(n=100000;r=0.005)")
	if err != nil {
		t.Fatal(err)
	}
	if kind != "rgg2d" {
		t.Fatalf("kind = %q", kind)
	}
	n, err := p.Int64("n", -1)
	if err != nil || n != 100000 {
		t.Fatalf("n = %d, %v", n, err)
	}
	r, err := p.FloatReq("r")
	if err != nil || r != 0.005 {
		t.Fatalf("r = %v, %v", r, err)
	}
	// A colon-form spec whose value contains parentheses keeps them.
	kind, p, err = Parse("file:path=a(b).tsv")
	if err != nil {
		t.Fatal(err)
	}
	path, _ := p.String("path")
	if kind != "file" || path != "a(b).tsv" {
		t.Fatalf("colon spec rewritten: kind=%q path=%q", kind, path)
	}
}
