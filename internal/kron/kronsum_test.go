package kron

import (
	"errors"
	"testing"

	"kronvalid/internal/sparse"
)

func TestKronVecSumAt(t *testing.T) {
	s := &KronVecSum{
		Terms: []VecTerm{
			{Coef: 2, Vecs: [][]int64{{1, 2}, {3, 4, 5}}},
			{Coef: -1, Vecs: [][]int64{{0, 1}, {2, 2, 2}}},
		},
		Den: 1,
	}
	// p = i*3 + k. At p=4: i=1,k=1: 2*2*4 - 1*1*2 = 14.
	if got := s.At(4); got != 14 {
		t.Errorf("At(4) = %d, want 14", got)
	}
	if got := s.At(0); got != 6 { // 2*1*3 - 0 = 6
		t.Errorf("At(0) = %d, want 6", got)
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d", s.Len())
	}
	vec := s.Vector()
	for p := range vec {
		if vec[p] != s.At(int64(p)) {
			t.Fatalf("Vector[%d] != At", p)
		}
	}
}

func TestKronVecSumNonIntegralPanics(t *testing.T) {
	s := &KronVecSum{
		Terms: []VecTerm{{Coef: 1, Vecs: [][]int64{{3}, {1}}}},
		Den:   2,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-integral statistic")
		}
	}()
	s.At(0)
}

func TestKronVecSumTotalOverflow(t *testing.T) {
	huge := int64(1) << 62
	s := &KronVecSum{
		Terms: []VecTerm{{Coef: 1, Vecs: [][]int64{{huge}, {4}}}},
		Den:   1,
	}
	if _, err := s.Total(); !errors.Is(err, sparse.ErrOverflow) {
		t.Fatalf("expected overflow, got %v", err)
	}
	// Accumulation overflow across terms.
	s2 := &KronVecSum{
		Terms: []VecTerm{
			{Coef: 1, Vecs: [][]int64{{huge}, {1}}},
			{Coef: 1, Vecs: [][]int64{{huge}, {1}}},
		},
		Den: 1,
	}
	if _, err := s2.Total(); !errors.Is(err, sparse.ErrOverflow) {
		t.Fatalf("expected accumulation overflow, got %v", err)
	}
}

func TestKronVecSumTotalNegativeTerms(t *testing.T) {
	s := &KronVecSum{
		Terms: []VecTerm{
			{Coef: 1, Vecs: [][]int64{{10}, {6}}},
			{Coef: -2, Vecs: [][]int64{{5}, {2}}},
		},
		Den: 2,
	}
	total, err := s.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != (60-20)/2 {
		t.Errorf("Total = %d, want 20", total)
	}
}

func TestKronVecSumMustTotalPanics(t *testing.T) {
	huge := int64(1) << 62
	s := &KronVecSum{
		Terms: []VecTerm{{Coef: 1, Vecs: [][]int64{{huge}, {4}}}},
		Den:   1,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTotal did not panic on overflow")
		}
	}()
	s.MustTotal()
}

func TestKronMatSumAtAndTotal(t *testing.T) {
	m1 := sparse.FromTriplets(2, 2, []sparse.Triplet{{Row: 0, Col: 1, Val: 3}})
	n1 := sparse.FromTriplets(2, 2, []sparse.Triplet{{Row: 1, Col: 0, Val: 4}})
	s := &KronMatSum{Terms: []MatTerm{{Coef: 2, Mats: []*sparse.Matrix{m1, n1}}}}
	// (p,q) = (0*2+1, 1*2+0) = (1, 2): 2*3*4 = 24.
	if got := s.At(1, 2); got != 24 {
		t.Errorf("At = %d, want 24", got)
	}
	if got := s.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %d, want 0", got)
	}
	total, err := s.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 24 {
		t.Errorf("Total = %d, want 24", total)
	}
	// Materialize equals lazy everywhere.
	mm := s.Materialize()
	for p := 0; p < 4; p++ {
		for q := 0; q < 4; q++ {
			if mm.At(p, q) != s.At(int64(p), int64(q)) {
				t.Fatalf("Materialize(%d,%d) != At", p, q)
			}
		}
	}
}

func TestKronMatSumEmptyPanics(t *testing.T) {
	s := &KronMatSum{}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty Materialize")
		}
	}()
	s.Materialize()
}
