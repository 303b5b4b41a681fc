package spec

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kronvalid/internal/params"
)

// FuzzParseSource drives the product grammar's split on its own (it
// builds no factors): no input panics, every accepted product flattens
// into two or more factors none of which is a product, and that factor
// list, re-spelled with KronSpec, splits again into the same list.
func FuzzParseSource(f *testing.F) {
	for _, seed := range []string{
		"kron(a=web:n=2048,m=3,seed=42;b=clique:n=6)",
		"kron(a=ba(n=50;d=2);b=clique:n=3)",
		"kron(a=web:n=200,m=3,seed=42+loops;b=clique:n=5)",
		"kron(a=file:path=a(b).tsv,n=3;b=er(n=10;p=0.5))",
		"kron(a=clique:n=3)",
		"kron(a=x;b=y;c=z)",
		"kron(a=ba(n=50;d=2;b=clique:n=3)",
		"kron(a=x);b=(y)",
		"kron(a=kron(a=x;b=y);b=z)",
		"kron(",
		"er:n=10,p=0.5",
		"",
		"kron(a=x;b=kron(a=ba(n=50;d=2);b=z+loops))",
		"kron(a=kron(a=w;b=x);b=kron(a=y;b=kron(a=z;b=v)))",
		"kron(a=kron(a=x;b=y)+loops;b=z)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		factors, ok, err := SplitKron(s)
		if !ok || err != nil {
			return
		}
		if len(factors) < 2 || slices.ContainsFunc(factors, func(f string) bool { return strings.HasPrefix(f, "kron(") }) {
			t.Fatalf("%q split into %q", s, factors)
		}
		again, ok2, err2 := SplitKron(KronSpec(factors...))
		if !ok2 || err2 != nil || !slices.Equal(again, factors) {
			t.Fatalf("%q split into %q; its re-spelling into %q, %v, %v", s, factors, again, ok2, err2)
		}
	})
}

// fuzzIntCap bounds every integer FuzzParseFactor builds with, so a
// valid size never costs more than a small graph.
const fuzzIntCap = 64

// digits is a run of decimal digits, the integers FuzzParseFactor caps.
var digits = regexp.MustCompile(`[0-9]+`)

// FuzzParseFactor builds what a factor-only spec names, with every digit
// run in the input reduced below fuzzIntCap by the harness (so floats
// change too, and stay floats): no input panics, and an accepted spec
// builds a nonempty symmetric graph that its spelling rebuilds. file is
// left out, as it reads the file system.
func FuzzParseFactor(f *testing.F) {
	for _, seed := range []string{
		"web:n=5,m=5", "path:n=-1", "jclique:n=-1", "clique:n=-3", "star:n=-2",
		"cycle:n=2", "hubcycle:c=0", "pa1:n=1",
		"web:n=50,m=3,pt=1.5", "web:n=50,pt=-1", "web:n=50,pt=NaN",
		"web:n=60,m=3,pt=0.6,seed=7", "web:n=2,m=1+loops", "clique:n=5", "jclique:n=4",
		"hubcycle", "cycle:n=9", "path:n=1", "star:n=9+loops", "pa1:n=40,seed=3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		s = digits.ReplaceAllStringFunc(s, func(d string) string {
			v, _ := strconv.ParseUint(d[max(0, len(d)-4):], 10, 64)
			return strconv.FormatUint(v%fuzzIntCap, 10)
		})
		kind, _, err := params.Parse(strings.TrimSuffix(s, "+loops"))
		if err != nil || kind == "file" || !slices.Contains(strings.Split(factorOnly, ", "), kind) {
			return
		}
		g, name, err := ParseNamed(s)
		if err != nil {
			return
		}
		if g.NumVertices() == 0 || !g.IsSymmetric() {
			t.Fatalf("%q: %v", s, g)
		}
		again, err := Parse(name)
		if err != nil || !again.Equal(g) {
			t.Fatalf("%q: its spelling %q rebuilds %v, %v", s, name, again, err)
		}
	})
}
