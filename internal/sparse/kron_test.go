package sparse

import (
	"testing"
	"testing/quick"

	"kronvalid/internal/rng"
)

func TestKronAgainstDense(t *testing.T) {
	g := rng.New(31)
	for trial := 0; trial < 30; trial++ {
		a := randomMatrix(g, 1+g.Intn(8), 1+g.Intn(8), 0.4, 4)
		b := randomMatrix(g, 1+g.Intn(8), 1+g.Intn(8), 0.4, 4)
		want := DenseFrom(a).Kron(DenseFrom(b)).Sparse()
		if got := Kron(a, b); !got.Equal(want) {
			t.Fatalf("Kron mismatch:\n%v\nvs\n%v", got, want)
		}
	}
}

// Prop. 1(c): (A1 ⊗ A2)^t = A1^t ⊗ A2^t.
func TestKronTransposition(t *testing.T) {
	g := rng.New(33)
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(g, 1+g.Intn(7), 1+g.Intn(7), 0.4, 3)
		b := randomMatrix(g, 1+g.Intn(7), 1+g.Intn(7), 0.4, 3)
		if !Kron(a, b).T().Equal(Kron(a.T(), b.T())) {
			t.Fatal("(A⊗B)^t != A^t⊗B^t")
		}
	}
}

// Prop. 1(d): (A1 ⊗ A2)(A3 ⊗ A4) = (A1·A3) ⊗ (A2·A4).
func TestKronMixedProduct(t *testing.T) {
	g := rng.New(34)
	for trial := 0; trial < 20; trial++ {
		m1, n1 := 1+g.Intn(5), 1+g.Intn(5)
		m2, n2 := 1+g.Intn(5), 1+g.Intn(5)
		k1, k2 := 1+g.Intn(5), 1+g.Intn(5)
		a1 := randomMatrix(g, m1, n1, 0.5, 3)
		a2 := randomMatrix(g, m2, n2, 0.5, 3)
		a3 := randomMatrix(g, n1, k1, 0.5, 3)
		a4 := randomMatrix(g, n2, k2, 0.5, 3)
		lhs := Kron(a1, a2).Mul(Kron(a3, a4))
		rhs := Kron(a1.Mul(a3), a2.Mul(a4))
		if !lhs.Equal(rhs) {
			t.Fatal("mixed-product property failed")
		}
	}
}

// Prop. 1(b): distributivity of ⊗ over +.
func TestKronDistributivity(t *testing.T) {
	g := rng.New(35)
	for trial := 0; trial < 20; trial++ {
		r, c := 1+g.Intn(6), 1+g.Intn(6)
		a1 := randomMatrix(g, r, c, 0.4, 3)
		a2 := randomMatrix(g, r, c, 0.4, 3)
		a3 := randomMatrix(g, 1+g.Intn(6), 1+g.Intn(6), 0.4, 3)
		if !Kron(a1.Add(a2), a3).Equal(Kron(a1, a3).Add(Kron(a2, a3))) {
			t.Fatal("(A1+A2)⊗A3 != A1⊗A3 + A2⊗A3")
		}
		if !Kron(a3, a1.Add(a2)).Equal(Kron(a3, a1).Add(Kron(a3, a2))) {
			t.Fatal("A3⊗(A1+A2) != A3⊗A1 + A3⊗A2")
		}
	}
}

// Prop. 2(e): (A1 ⊗ A2) ∘ (A3 ⊗ A4) = (A1 ∘ A3) ⊗ (A2 ∘ A4).
func TestHadamardKronDistributivity(t *testing.T) {
	g := rng.New(36)
	for trial := 0; trial < 20; trial++ {
		r1, c1 := 1+g.Intn(6), 1+g.Intn(6)
		r2, c2 := 1+g.Intn(6), 1+g.Intn(6)
		a1 := randomMatrix(g, r1, c1, 0.5, 3)
		a3 := randomMatrix(g, r1, c1, 0.5, 3)
		a2 := randomMatrix(g, r2, c2, 0.5, 3)
		a4 := randomMatrix(g, r2, c2, 0.5, 3)
		lhs := Kron(a1, a2).Hadamard(Kron(a3, a4))
		rhs := Kron(a1.Hadamard(a3), a2.Hadamard(a4))
		if !lhs.Equal(rhs) {
			t.Fatal("Hadamard-Kronecker distributivity failed")
		}
	}
}

// Prop. 2(f): diag(A1 ⊗ A2) = diag(A1) ⊗ diag(A2).
func TestDiagKronDistributivity(t *testing.T) {
	g := rng.New(37)
	for trial := 0; trial < 20; trial++ {
		n1, n2 := 1+g.Intn(8), 1+g.Intn(8)
		a1 := randomMatrix(g, n1, n1, 0.5, 3)
		a2 := randomMatrix(g, n2, n2, 0.5, 3)
		if !EqualVec(Kron(a1, a2).Diag(), KronVec(a1.Diag(), a2.Diag())) {
			t.Fatal("diag(A1⊗A2) != diag(A1)⊗diag(A2)")
		}
	}
}

// Prop. 1(a): scalar multiplication compatibility.
func TestKronScalar(t *testing.T) {
	g := rng.New(38)
	a := randomMatrix(g, 4, 4, 0.5, 3)
	b := randomMatrix(g, 3, 3, 0.5, 3)
	scale := func(m *Matrix, s int64) *Matrix {
		d := DenseFrom(m)
		for i := range d.V {
			d.V[i] *= s
		}
		return d.Sparse()
	}
	if !scale(Kron(a, b), 6).Equal(Kron(scale(a, 2), scale(b, 3))) {
		t.Fatal("(6)(A⊗B) != (2A)⊗(3B)")
	}
}

func TestQuickKronVecMatchesMatrixKron(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		n1, n2 := 1+g.Intn(6), 1+g.Intn(6)
		u := make([]int64, n1)
		v := make([]int64, n2)
		for i := range u {
			u[i] = g.Int64n(9) - 4
		}
		for i := range v {
			v[i] = g.Int64n(9) - 4
		}
		// u ⊗ v as column vectors == Kron of n x 1 matrices.
		um := (&Dense{R: n1, C: 1, V: u}).Sparse()
		vm := (&Dense{R: n2, C: 1, V: v}).Sparse()
		k := Kron(um, vm)
		got := make([]int64, n1*n2)
		for i := range got {
			got[i] = k.At(i, 0)
		}
		return EqualVec(got, KronVec(u, v))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 50}
}

func TestKronOverflowGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized Kron")
		}
	}()
	a := FromTriplets(1<<20, 1<<20, nil)
	Kron(a, a)
}
