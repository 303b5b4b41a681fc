package spec

import (
	"slices"
	"strings"
	"testing"
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
