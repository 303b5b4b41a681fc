package sparse

import (
	"testing"

	"kronvalid/internal/rng"
)

func TestTransposeAgainstDense(t *testing.T) {
	g := rng.New(7)
	for trial := 0; trial < 30; trial++ {
		m := randomMatrix(g, 1+g.Intn(25), 1+g.Intn(25), 0.25, 9)
		want := DenseFrom(m).T().Sparse()
		if got := m.T(); !got.Equal(want) {
			t.Fatalf("transpose mismatch:\n%v\nvs\n%v", got, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := rng.New(8)
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(g, 1+g.Intn(30), 1+g.Intn(30), 0.2, 5)
		if !m.T().T().Equal(m) {
			t.Fatal("(M^t)^t != M")
		}
	}
}

func TestAddSubHadamardAgainstDense(t *testing.T) {
	g := rng.New(9)
	for trial := 0; trial < 30; trial++ {
		r, c := 1+g.Intn(20), 1+g.Intn(20)
		a := randomMatrix(g, r, c, 0.3, 9)
		b := randomMatrix(g, r, c, 0.3, 9)
		da, db := DenseFrom(a), DenseFrom(b)
		if !a.Add(b).Equal(da.Add(db).Sparse()) {
			t.Fatal("Add mismatch")
		}
		if !a.Sub(b).Equal(da.Sub(db).Sparse()) {
			t.Fatal("Sub mismatch")
		}
		if !a.Hadamard(b).Equal(da.Hadamard(db).Sparse()) {
			t.Fatal("Hadamard mismatch")
		}
	}
}

func TestSubSelfIsZero(t *testing.T) {
	g := rng.New(10)
	m := randomMatrix(g, 15, 15, 0.3, 9)
	if !m.Sub(m).IsZero() {
		t.Error("M - M is not zero")
	}
}

func TestScale(t *testing.T) {
	m := FromTriplets(2, 2, []Triplet{{0, 0, 3}, {1, 1, -2}})
	s := m.Scale(4)
	if s.At(0, 0) != 12 || s.At(1, 1) != -8 {
		t.Errorf("Scale wrong: %v", s)
	}
	if !m.Scale(0).IsZero() {
		t.Error("Scale(0) not zero")
	}
}

func TestDiagOperators(t *testing.T) {
	m := FromTriplets(3, 3, []Triplet{{0, 0, 2}, {0, 1, 5}, {1, 1, 3}, {2, 0, 4}})
	d := m.Diag()
	if !EqualVec(d, []int64{2, 3, 0}) {
		t.Errorf("Diag = %v", d)
	}
	if dp := m.DiagPart(); !dp.Equal(DiagMatrix(d)) {
		t.Errorf("DiagPart = %v", dp)
	}
	dm := DiagMatrix([]int64{1, 0, 7})
	if dm.NNZ() != 2 || dm.At(0, 0) != 1 || dm.At(2, 2) != 7 {
		t.Errorf("DiagMatrix wrong: %v", dm)
	}
}

func TestRowColSums(t *testing.T) {
	m := FromTriplets(2, 3, []Triplet{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	if !EqualVec(m.RowSums(), []int64{3, 3}) {
		t.Errorf("RowSums = %v", m.RowSums())
	}
	if !EqualVec(m.ColSums(), []int64{1, 3, 2}) {
		t.Errorf("ColSums = %v", m.ColSums())
	}
	if m.Total() != 6 {
		t.Errorf("Total = %d", m.Total())
	}
}

func TestTrace(t *testing.T) {
	m := FromTriplets(3, 3, []Triplet{{0, 0, 2}, {1, 1, 3}, {0, 1, 100}})
	if m.Trace() != 5 {
		t.Errorf("Trace = %d, want 5", m.Trace())
	}
}

func TestMaxVal(t *testing.T) {
	if New(3, 3).MaxVal() != 0 {
		t.Error("MaxVal of zero matrix")
	}
	m := FromTriplets(2, 2, []Triplet{{0, 0, 3}, {1, 0, 9}})
	if m.MaxVal() != 9 {
		t.Errorf("MaxVal = %d", m.MaxVal())
	}
}

func TestRandomSymmetricIsSymmetric(t *testing.T) {
	g := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		m := randomSymmetric(g, 2+g.Intn(20), 0.3, trial%2 == 0)
		if !m.IsSymmetric() {
			t.Fatal("randomSymmetric produced asymmetric matrix")
		}
		if !m.IsBinary() {
			t.Fatal("randomSymmetric produced non-binary matrix")
		}
	}
}
