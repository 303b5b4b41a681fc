package sparse

import (
	"testing"

	"kronvalid/internal/rng"
)

// randomMatrix builds a random sparse matrix with entries in [1, maxVal]
// and approximately density*rows*cols nonzeros.
func randomMatrix(g *rng.Xoshiro256, rows, cols int, density float64, maxVal int64) *Matrix {
	var ts []Triplet
	target := int(density * float64(rows) * float64(cols))
	for i := 0; i < target; i++ {
		ts = append(ts, Triplet{g.Intn(rows), g.Intn(cols), 1 + g.Int64n(maxVal)})
	}
	return FromTriplets(rows, cols, ts)
}

// randomSymmetric builds a random symmetric 0/1 matrix with optional
// self loops.
func randomSymmetric(g *rng.Xoshiro256, n int, density float64, loops bool) *Matrix {
	var ts []Triplet
	seen := map[[2]int]bool{} // FromTriplets sums duplicates; keep it 0/1
	add := func(r, c int) {
		if !seen[[2]int{r, c}] {
			seen[[2]int{r, c}] = true
			ts = append(ts, Triplet{r, c, 1})
		}
	}
	target := int(density * float64(n) * float64(n) / 2)
	for i := 0; i < target; i++ {
		a, b := g.Intn(n), g.Intn(n)
		if a == b {
			if loops {
				add(a, a)
			}
			continue
		}
		add(a, b)
		add(b, a)
	}
	return FromTriplets(n, n, ts)
}

func TestFromTripletsBasics(t *testing.T) {
	m := FromTriplets(3, 4, []Triplet{
		{0, 1, 5}, {2, 3, -2}, {0, 1, 3}, {1, 0, 7}, {2, 2, 4}, {2, 2, -4},
	})
	if m.Rows() != 3 || m.cols != 4 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.cols)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (duplicates summed, zeros dropped)", m.NNZ())
	}
	if got := m.At(0, 1); got != 8 {
		t.Errorf("At(0,1) = %d, want 8", got)
	}
	if got := m.At(2, 3); got != -2 {
		t.Errorf("At(2,3) = %d, want -2", got)
	}
	if got := m.At(2, 2); got != 0 {
		t.Errorf("At(2,2) = %d, want 0 (summed to zero)", got)
	}
	if got := m.At(1, 0); got != 7 {
		t.Errorf("At(1,0) = %d, want 7", got)
	}
}

func TestFromTripletsPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds triplet")
		}
	}()
	FromTriplets(2, 2, []Triplet{{2, 0, 1}})
}

func TestIdentity(t *testing.T) {
	i5 := Identity(5)
	if i5.NNZ() != 5 || !i5.T().Equal(i5) || !i5.IsBinary() {
		t.Fatalf("bad identity: %v", i5)
	}
	g := rng.New(2)
	m := randomMatrix(g, 5, 5, 0.4, 9)
	if !m.Mul(i5).Equal(m) || !i5.Mul(m).Equal(m) {
		t.Error("identity is not a multiplicative identity")
	}
}

func TestEachEarlyStop(t *testing.T) {
	m := FromTriplets(2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}})
	count := 0
	m.Each(func(r, c int, v int64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d entries, want 2", count)
	}
}

func TestRowAccessors(t *testing.T) {
	m := FromTriplets(3, 5, []Triplet{{1, 0, 4}, {1, 3, 6}, {1, 4, 1}})
	cols, vals := m.Row(1)
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 3 || cols[2] != 4 {
		t.Fatalf("Row cols = %v", cols)
	}
	if vals[0] != 4 || vals[1] != 6 || vals[2] != 1 {
		t.Fatalf("Row vals = %v", vals)
	}
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func()
	}{
		{"bad rowPtr len", func() { NewCSR(2, 2, []int64{0, 0}, nil, nil) }},
		{"unsorted cols", func() {
			NewCSR(1, 3, []int64{0, 2}, []int32{2, 0}, []int64{1, 1})
		}},
		{"stored zero", func() {
			NewCSR(1, 3, []int64{0, 1}, []int32{0}, []int64{0})
		}},
		{"col out of range", func() {
			NewCSR(1, 2, []int64{0, 1}, []int32{5}, []int64{1})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.build()
		})
	}
}

func TestVecHelpers(t *testing.T) {
	u := []int64{1, 2, 3}
	v := []int64{4, 5, 6}
	if SumVec(u) != 6 {
		t.Error("SumVec")
	}
	if EqualVec(u, v) || EqualVec(u, v[:2]) {
		t.Error("EqualVec false positives")
	}
	kv := KronVec([]int64{2, 3}, []int64{1, 10})
	if !EqualVec(kv, []int64{2, 20, 3, 30}) {
		t.Errorf("KronVec = %v", kv)
	}
}
