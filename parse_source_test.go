package kronvalid

import (
	"context"
	"testing"
)

// TestParseSourceKronDigests pins ParseSource's product form to the
// streams the two-flag product CLI (-a A -b B) generated for the same
// factors before the form existed (digests recorded with its -digest),
// at one and at several shards, and checks that Name() is a fixpoint:
// parsing it rebuilds the same name and the same digest.
func TestParseSourceKronDigests(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ spec, name, digest string }{
		{"kron(a=web:n=2048,m=3,seed=42;b=clique:n=6)", "", "70ae37288f397c43"},
		{"kron(a=ba(n=50;d=2);b=clique:n=3)", "kron(a=ba:n=50,d=2,s0=3,seed=1,chunks=47;b=clique:n=3)", "bb9e30494f424133"},
		{"kron(a=web:n=200,m=3,seed=42+loops;b=clique:n=5)", "", "e26c829f33b1557d"},
		{"kron(a=er(n=30;p=0.2;seed=3)+loops;b=clique:n=3)", "kron(a=er:n=30,p=0.2,seed=3,chunks=29+loops;b=clique:n=3)", ""},
		{"kron(a=kron(a=clique:n=2;b=clique:n=2);b=cycle:n=3)", "", ""},
	} {
		want := c.name
		if want == "" {
			want = c.spec // factor-only kinds keep their spelling
		}
		spelling, digest := c.spec, c.digest
		for _, shards := range []int{1, 4} {
			src, err := ParseSource(spelling, shards)
			if err != nil {
				t.Fatalf("%s: %v", spelling, err)
			}
			if src.Name() != want {
				t.Errorf("ParseSource(%q).Name() = %q, want %q", spelling, src.Name(), want)
			}
			d, err := Digest(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if digest != "" && d != digest {
				t.Errorf("%s at %d shards: digest %s, want %s", spelling, shards, d, digest)
			}
			spelling, digest = src.Name(), d
		}
	}
}

// TestParseSourceModelSpec checks that a registered model spec resolves
// exactly as NewGenerator + ModelSource.
func TestParseSourceModelSpec(t *testing.T) {
	const s = "er(n=300;p=0.05;seed=3)"
	g, err := NewGenerator(s)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ParseSource(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := ModelSource(g, 3)
	if src.Name() != want.Name() || src.Shards() != want.Shards() {
		t.Errorf("ParseSource: %s over %d shards, ModelSource: %s over %d", src.Name(), src.Shards(), want.Name(), want.Shards())
	}
	ctx := context.Background()
	d1, err1 := Digest(ctx, src)
	d2, err2 := Digest(ctx, want)
	if err1 != nil || err2 != nil || d1 != d2 {
		t.Errorf("digests %s (%v) and %s (%v)", d1, err1, d2, err2)
	}
}

// TestParseSourceMalformed checks that malformed products are errors,
// not panics.
func TestParseSourceMalformed(t *testing.T) {
	for _, s := range []string{
		"kron(a=clique:n=3)",                                       // missing b=
		"kron(a=clique:n=3;b=clique:n=4;c=clique:n=2)",             // extra key
		"kron(b=clique:n=3;a=clique:n=4)",                          // keys out of order
		"kron(a=;b=clique:n=3)",                                    // empty factor
		"kron(a=ba(n=50;d=2;b=clique:n=3)",                         // unclosed factor
		"kron(a=clique:n=3);b=(clique:n=4)",                        // closes early
		"kron(a=clique:n=3;b=clique:n=4",                           // unclosed product
		"kron(a=kron(a=clique:n=2);b=cycle:n=3)",                   // nested product missing b=
		"kron(a=kron(a=clique:n=2;b=clique:n=2)+loops;b=path:n=3)", // "+loops" on a product
		"kron(a=nosuch:n=3;b=clique:n=3)",                          // unknown factor kind
		"kron(a=clique:n=3,x=1;b=clique:n=3)",                      // unknown factor key
		"kron",
	} {
		if src, err := ParseSource(s, 1); err == nil {
			t.Errorf("ParseSource(%q) accepted: %s", s, src.Name())
		}
	}
}

// TestParseSourceNestedProducts: a product nested on either side is one
// product of three factors, which streams the digests
// TestThreeFactorProductDigests pins (internal/kron) at 1, 4 and 8
// shards, and is named by the fold from the left, which ParseSource
// reads back into the same name.
func TestParseSourceNestedProducts(t *testing.T) {
	ctx := context.Background()
	for _, pin := range []struct {
		f      [3]string
		digest string
	}{
		{[3]string{"web:n=200,m=3,seed=42", "clique:n=5", "hubcycle:c=4"}, "f9203a4743dce972"},
		{[3]string{"web:n=200,m=3,seed=42+loops", "jclique:n=4", "cycle:n=5+loops"}, "efbab13a54ea4130"},
	} {
		left := "kron(a=kron(a=" + pin.f[0] + ";b=" + pin.f[1] + ");b=" + pin.f[2] + ")"
		right := "kron(a=" + pin.f[0] + ";b=kron(a=" + pin.f[1] + ";b=" + pin.f[2] + "))"
		for _, s := range []string{left, right} {
			for _, shards := range []int{1, 4, 8} {
				src, err := ParseSource(s, shards)
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				if src.Name() != left {
					t.Errorf("ParseSource(%q).Name() = %q, want %q", s, src.Name(), left)
				}
				if d, err := Digest(ctx, src, WithWorkers(shards)); err != nil || d != pin.digest {
					t.Errorf("%s at %d shards: digest %s, %v; want %s", s, shards, d, err, pin.digest)
				}
				back, err := ParseSource(src.Name(), shards)
				if err != nil || back.Name() != src.Name() || back.TotalArcs() != src.TotalArcs() {
					t.Errorf("%s does not round-trip: %v", src.Name(), err)
				}
			}
		}
	}
}
