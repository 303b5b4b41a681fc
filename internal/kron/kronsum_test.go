package kron

import (
	"errors"
	"slices"
	"testing"

	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

func TestKronVecSumAt(t *testing.T) {
	s := &KronVecSum{
		Terms: []Term{
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
		Terms: []Term{{Coef: 1, Vecs: [][]int64{{3}, {1}}}},
		Den:   2,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-integral statistic")
		}
	}()
	s.At(0)
}

func TestCheckedArithmetic(t *testing.T) {
	if v, err := CheckedMul(1<<31, 1<<31); err != nil || v != 1<<62 {
		t.Errorf("CheckedMul(2^31,2^31) = %d, %v", v, err)
	}
	if _, err := CheckedMul(1<<32, 1<<32); !errors.Is(err, ErrOverflow) {
		t.Error("CheckedMul(2^32,2^32) should overflow")
	}
	if _, err := CheckedMul(-1, 2); err == nil {
		t.Error("CheckedMul should reject negative counts")
	}
}

func TestKronVecSumTotalOverflow(t *testing.T) {
	huge := int64(1) << 62
	s := &KronVecSum{
		Terms: []Term{{Coef: 1, Vecs: [][]int64{{huge}, {4}}}},
		Den:   1,
	}
	if _, err := s.Total(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("expected overflow, got %v", err)
	}
	// Accumulation overflow across terms.
	s2 := &KronVecSum{
		Terms: []Term{
			{Coef: 1, Vecs: [][]int64{{huge}, {1}}},
			{Coef: 1, Vecs: [][]int64{{huge}, {1}}},
		},
		Den: 1,
	}
	if _, err := s2.Total(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("expected accumulation overflow, got %v", err)
	}
}

func TestKronVecSumTotalNegativeTerms(t *testing.T) {
	s := &KronVecSum{
		Terms: []Term{
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
		Terms: []Term{{Coef: 1, Vecs: [][]int64{{huge}, {4}}}},
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
	// M = 3 at arc (0,1) of its factor, N = 4 at arc (1,0) of its.
	s := &KronMatSum{
		p: MustProduct(
			graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, false),
			graph.FromEdges(2, []graph.Edge{{U: 1, V: 0}}, false),
		),
		Terms: []Term{{Coef: 2, Vecs: [][]int64{{3}, {4}}}},
	}
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
	// (1, 2) is the product's one arc: At is 0 at every other pair.
	for p := int64(0); p < 4; p++ {
		for q := int64(0); q < 4; q++ {
			if got := s.At(p, q); got != 0 && (p != 1 || q != 2) {
				t.Fatalf("At(%d,%d) = %d off the arcs", p, q, got)
			}
		}
	}
}

// TestKronMatSumVectorMatchesAt: the arc walk reads the same values as
// At's binary searches, on products of one to three factors in every
// self-loop regime, where Δ has one term or five.
func TestKronMatSumVectorMatchesAt(t *testing.T) {
	g := rng.New(17)
	for k := 1; k <= 3; k++ {
		for _, loops := range []float64{0, 0.5, 1} {
			factors := make([]*graph.Graph, k)
			for i := range factors {
				factors[i] = randomUndirected(g, 3+g.Intn(5), 3, loops)
			}
			p := MustProduct(factors...)
			dc, err := EdgeParticipation(p)
			if err != nil {
				t.Fatal(err)
			}
			c := materialize(t, p)
			if got, want := dc.Vector(), arcValues(dc, c); !slices.Equal(got, want) {
				t.Fatalf("k=%d loops=%g: Vector %v, At %v", k, loops, got, want)
			}
		}
	}
}

// BenchmarkArcColumn compares Δ at every arc of the kron-tsv product
// (web:n=1024,m=4 ⊗ web:n=512,m=4, 33.2 M arcs), read by the arc walk,
// with the arc stream alone.
func BenchmarkArcColumn(b *testing.B) {
	p := MustProduct(mustFactor(b, "web:n=1024,m=4,seed=1"), mustFactor(b, "web:n=512,m=4,seed=2"))
	dc, err := EdgeParticipation(p)
	if err != nil {
		b.Fatal(err)
	}
	arcs := float64(p.NumArcs())
	b.Run("EachArcBatch", func(b *testing.B) {
		for b.Loop() {
			var n int64
			p.EachArcBatch(0, func(batch []stream.Arc) bool {
				n += int64(len(batch))
				return true
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/arcs, "ns/arc")
	})
	b.Run("DeltaWalk", func(b *testing.B) {
		for b.Loop() {
			var n int64
			dc.eachRow(func(_ int64, vals []int64) {
				n += int64(len(vals))
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/arcs, "ns/arc")
	})
}
