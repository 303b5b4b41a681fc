package spec

import "testing"

// FuzzParseSource drives the product grammar's split on its own (it
// builds no factors): no input panics, and every accepted product,
// reassembled with KronSpec, splits again into the same two factors.
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, b, ok, err := SplitKron(s)
		if !ok || err != nil {
			return
		}
		a2, b2, ok2, err2 := SplitKron(KronSpec(a, b))
		if !ok2 || err2 != nil || a2 != a || b2 != b {
			t.Fatalf("%q split into (%q, %q); its reassembly into (%q, %q, %v, %v)", s, a, b, a2, b2, ok2, err2)
		}
	})
}
