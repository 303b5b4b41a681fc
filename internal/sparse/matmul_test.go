package sparse

import (
	"testing"

	"kronvalid/internal/rng"
)

func TestMulAgainstDense(t *testing.T) {
	g := rng.New(21)
	for trial := 0; trial < 40; trial++ {
		r, k, c := 1+g.Intn(20), 1+g.Intn(20), 1+g.Intn(20)
		a := randomMatrix(g, r, k, 0.3, 5)
		b := randomMatrix(g, k, c, 0.3, 5)
		want := DenseFrom(a).Mul(DenseFrom(b)).Sparse()
		if got := a.Mul(b); !got.Equal(want) {
			t.Fatalf("Mul mismatch at trial %d:\n%v\nvs\n%v", trial, got, want)
		}
	}
}

func TestMulLargeParallelPath(t *testing.T) {
	// Exercise the parallel branch (rows above the serial cutoff).
	g := rng.New(22)
	a := randomMatrix(g, 5000, 300, 0.01, 3)
	b := randomMatrix(g, 300, 400, 0.05, 3)
	got := a.Mul(b)
	// Spot-check 200 random entries against direct dot products.
	bt := b.T()
	for i := 0; i < 200; i++ {
		r, c := g.Intn(5000), g.Intn(400)
		var want int64
		ac, av := a.Row(r)
		for j := range ac {
			want += av[j] * bt.At(c, int(ac[j]))
		}
		if got.At(r, c) != want {
			t.Fatalf("entry (%d,%d) = %d, want %d", r, c, got.At(r, c), want)
		}
	}
}

func TestRowSumsEqualsMulOnes(t *testing.T) {
	g := rng.New(24)
	m := randomMatrix(g, 40, 25, 0.2, 7)
	// mulOnes is A·1 as a sparse product with the all-ones column.
	mulOnes := func(a *Matrix) []int64 {
		ones := NewDense(a.cols, 1)
		for i := range ones.V {
			ones.V[i] = 1
		}
		out := make([]int64, a.Rows())
		a.Mul(ones.Sparse()).Each(func(r, _ int, v int64) bool {
			out[r] = v
			return true
		})
		return out
	}
	if !EqualVec(m.RowSums(), mulOnes(m)) {
		t.Error("RowSums != A·1")
	}
	if !EqualVec(m.ColSums(), mulOnes(m.T())) {
		t.Error("ColSums != A^t·1")
	}
}

func TestDiagOfProduct(t *testing.T) {
	g := rng.New(25)
	for trial := 0; trial < 30; trial++ {
		n := 1 + g.Intn(25)
		a := randomMatrix(g, n, n, 0.3, 5)
		b := randomMatrix(g, n, n, 0.3, 5)
		want := a.Mul(b).Diag()
		if got := DiagOfProduct(a, b); !EqualVec(got, want) {
			t.Fatalf("DiagOfProduct = %v, want %v", got, want)
		}
	}
}

func TestDiag3(t *testing.T) {
	g := rng.New(26)
	for trial := 0; trial < 20; trial++ {
		n := 1 + g.Intn(20)
		a := randomMatrix(g, n, n, 0.3, 3)
		b := randomMatrix(g, n, n, 0.3, 3)
		c := randomMatrix(g, n, n, 0.3, 3)
		want := a.Mul(b).Mul(c).Diag()
		if got := Diag3(a, b, c); !EqualVec(got, want) {
			t.Fatalf("Diag3 = %v, want %v", got, want)
		}
	}
}

func TestSortInt32(t *testing.T) {
	g := rng.New(27)
	for trial := 0; trial < 50; trial++ {
		n := g.Intn(200)
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(g.Intn(100))
		}
		sortInt32(s)
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				t.Fatalf("sortInt32 produced unsorted output at %d: %v", i, s)
			}
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	FromTriplets(2, 3, nil).Mul(FromTriplets(2, 3, nil))
}

func BenchmarkSpGEMM(b *testing.B) {
	g := rng.New(1)
	a := randomMatrix(g, 3000, 3000, 0.002, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Mul(a)
	}
}
