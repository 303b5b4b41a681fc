package kron

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
	"kronvalid/internal/spec"
)

// loopRegimes returns g without loops, with a loop at every third vertex,
// at one vertex, and at every vertex.
func loopRegimes(g *graph.Graph) map[string]*graph.Graph {
	bare := g.WithoutLoops()
	third := bare
	for v := 0; v < g.NumVertices(); v += 3 {
		third = third.WithLoopAt(int32(v))
	}
	return map[string]*graph.Graph{
		"none":  bare,
		"third": third,
		"one":   bare.WithLoopAt(int32(g.NumVertices() / 2)),
		"all":   bare.WithAllLoops(),
	}
}

// TestFactorStatsMatchMatrixDefinitions holds ComputeFactorStats to the
// matrix expressions it replaces: each quantity, G² formed explicitly.
func TestFactorStatsMatchMatrixDefinitions(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := rng.New(seed)
		base := randomUndirected(r, 5+r.Intn(40), 1+4*r.Float64(), 0)
		for regime, g := range loopRegimes(base) {
			st := ComputeFactorStats(g)
			a := g.ToSparse()
			da := a.DiagPart()
			a2 := a.Mul(a)
			name := fmt.Sprintf("seed %d, loops %s", seed, regime)
			for _, c := range []struct {
				what      string
				got, want []int64
			}{
				{"diag(G³)", st.DiagCube, sparse.DiagOfProduct(a2, a)},
				{"diag(G²D)", st.diagSqD, sparse.DiagOfProduct(a2, da)},
				{"diag(GDG)", st.diagGDG, sparse.Diag3(a, da, a)},
				{"diag(D)", st.loopDiag, da.Diag()},
			} {
				if !sparse.EqualVec(c.got, c.want) {
					t.Errorf("%s: %s = %v, want %v", name, c.what, c.got, c.want)
				}
			}
			for _, c := range []struct {
				what      string
				got, want *sparse.Matrix
			}{
				{"G∘G²", st.HadSquare, a.Hadamard(a2)},
				{"D", st.loopPart, da},
				{"DG", st.loopRows, da.Mul(a)},
				{"GD", st.loopCols, a.Mul(da)},
				{"D∘G²", st.loopHadSq, da.Hadamard(a2)},
			} {
				if !c.got.Equal(c.want) {
					t.Errorf("%s: %s =\n%vwant\n%v", name, c.what, c.got, c.want)
				}
			}
			if st.hasLoops() != g.HasAnyLoop() {
				t.Errorf("%s: hasLoops = %v", name, st.hasLoops())
			}
		}
	}
}

// TestFactorStatsPinnedOnBenchFactor pins the statistics of the factor
// the kron-truth benchmark workload multiplies.
func TestFactorStatsPinnedOnBenchFactor(t *testing.T) {
	g, err := spec.Parse("web:n=16384")
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeFactorStats(g)
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"arcs", g.NumArcs(), 98286},
		{"τ", st.Total, 23407},
		{"wedge checks", st.WedgeChecks, 180706},
		{"nnz(G∘G²)", st.HadSquare.NNZ(), 80654},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
}

// TestDirectedCensusNeverCountsDirectedFactor: Thm. 4/5 read B's
// statistics only; the triangle engine panics on the directed A.
func TestDirectedCensusNeverCountsDirectedFactor(t *testing.T) {
	a := randomDirected(rng.New(5), 9, 3, 0.3)
	if a.IsSymmetric() {
		t.Fatal("test needs a non-symmetric A")
	}
	b := randomUndirected(rng.New(6), 6, 3, 0.5)
	if !b.HasAnyLoop() {
		t.Fatal("test needs loops in B")
	}
	p := MustProduct(a, b)
	ds, err := DirectedCensus(p)
	if err != nil {
		t.Fatal(err)
	}
	bm := b.ToSparse()
	want := sparse.DiagOfProduct(bm.Mul(bm), bm)
	for ty, vs := range ds.Vertex {
		if !sparse.EqualVec(vs.Terms[0].V, want) {
			t.Fatalf("type %v: V = %v, want diag(B³) = %v", ty, vs.Terms[0].V, want)
		}
	}
	if _, _, err := p.FactorStats(); err == nil {
		t.Error("FactorStats of a directed product: want an error")
	}
}

// TestProductStatsConcurrent calls different closed forms on one fresh
// product from eight goroutines; run under -race.
func TestProductStatsConcurrent(t *testing.T) {
	a := randomUndirected(rng.New(11), 30, 4, 0.3)
	b := randomUndirected(rng.New(12), 25, 4, 0.3)
	want, err := TriangleTotal(MustProduct(a, b))
	if err != nil {
		t.Fatal(err)
	}
	p := MustProduct(a, b)
	forms := []func() (int64, error){
		func() (int64, error) { return TriangleTotal(p) },
		func() (int64, error) {
			tc, err := VertexParticipation(p)
			if err != nil {
				return 0, err
			}
			total, err := tc.Total()
			return total / 3, err
		},
		func() (int64, error) {
			dc, err := EdgeParticipation(p)
			if err != nil {
				return 0, err
			}
			total, err := dc.Total()
			return total / 6, err
		},
		func() (int64, error) {
			_, err := GlobalClustering(p)
			return want, err
		},
		func() (int64, error) {
			_, err := LocalClustering(p)
			return want, err
		},
		func() (int64, error) {
			// Loops in both factors: Thm. 3 does not apply, but the
			// hypothesis check must not race either.
			_, err := TrussDecomposition(p)
			if err == nil {
				return 0, fmt.Errorf("TrussDecomposition accepted looped factors")
			}
			return want, nil
		},
		func() (int64, error) {
			sa, sb, err := p.FactorStats()
			if err != nil {
				return 0, err
			}
			if sa.G != a || sb.G != b {
				return 0, fmt.Errorf("FactorStats returned another factor's statistics")
			}
			return want, nil
		},
		func() (int64, error) { return TriangleTotal(p) },
	}
	var wg sync.WaitGroup
	wg.Add(len(forms))
	for i, form := range forms {
		go func() {
			defer wg.Done()
			if got, err := form(); err != nil || got != want {
				t.Errorf("form %d: τ = %d, %v; want %d", i, got, err, want)
			}
		}()
	}
	wg.Wait()
}

// TestKronMatSumTotalChecksCoefficient: each product M.Total()·N.Total()
// fits int64; only the multiply by the coefficient 2 does not.
func TestKronMatSumTotalChecksCoefficient(t *testing.T) {
	big := sparse.FromTriplets(1, 1, []sparse.Triplet{{Row: 0, Col: 0, Val: 1 << 31}})
	one := sparse.Identity(1)
	s := &KronMatSum{
		Terms: []MatTerm{
			{Coef: 2, M: big, N: big},
			{Coef: 1, M: one, N: one},
		},
		nB: 1, mB: 1,
	}
	if total, err := s.Total(); !errors.Is(err, sparse.ErrOverflow) {
		t.Fatalf("Total = %d, %v; want ErrOverflow", total, err)
	}
	s.Terms[0].Coef = 1
	if total, err := s.Total(); err != nil || total != 1<<62+1 {
		t.Fatalf("Total = %d, %v; want 2^62+1", total, err)
	}
}
