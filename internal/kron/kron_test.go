package kron

import (
	"errors"
	"slices"
	"testing"

	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
	"kronvalid/internal/triangle"
)

func randomUndirected(g *rng.Xoshiro256, n int, avgDeg float64, loopProb float64) *graph.Graph {
	var edges []graph.Edge
	target := int(avgDeg * float64(n) / 2)
	for i := 0; i < target; i++ {
		u, v := int32(g.Intn(n)), int32(g.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	gr := graph.FromEdges(n, edges, true)
	if loopProb > 0 {
		var loops []graph.Edge
		gr.EachArc(func(u, v int32) bool { return true })
		for v := 0; v < n; v++ {
			if g.Float64() < loopProb {
				loops = append(loops, graph.Edge{U: int32(v), V: int32(v)})
			}
		}
		all := append(gr.Arcs(), loops...)
		gr = graph.FromEdges(n, all, false)
	}
	return gr
}

// materialize builds the explicit C for validation.
func materialize(t *testing.T, p *Product) *graph.Graph {
	t.Helper()
	c, err := p.Materialize(5000, 2_000_000)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return c
}

func TestProductIndexMaps(t *testing.T) {
	a := randomUndirected(rng.New(1), 7, 3, 0)
	b := randomUndirected(rng.New(2), 5, 2, 0)
	p := MustProduct(a, b)
	for i := int32(0); i < 7; i++ {
		for k := int32(0); k < 5; k++ {
			v := p.Vertex(i, k)
			if got := p.FactorsOf(v); got[0] != i || got[1] != k {
				t.Fatalf("FactorsOf(Vertex(%d,%d)) = %v", i, k, got)
			}
		}
	}
	if p.NumVertices() != 35 {
		t.Errorf("NumVertices = %d", p.NumVertices())
	}
}

func TestProductAdjacencyMatchesExplicitKron(t *testing.T) {
	g := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		a := randomUndirected(g, 4+g.Intn(8), 3, 0.3)
		b := randomUndirected(g, 3+g.Intn(8), 3, 0.3)
		p := MustProduct(a, b)
		want := sparse.Kron(sparse.Adjacency(a), sparse.Adjacency(b))
		c := materialize(t, p)
		if !sparse.Adjacency(c).Equal(want) {
			t.Fatalf("trial %d: materialized product != A ⊗ B", trial)
		}
		// Spot-check HasEdge and Degree against the explicit graph.
		n := p.NumVertices()
		for s := 0; s < 50; s++ {
			u, v := g.Int64n(n), g.Int64n(n)
			if p.HasEdge(u, v) != c.HasEdge(int32(u), int32(v)) {
				t.Fatalf("HasEdge(%d,%d) mismatch", u, v)
			}
		}
		for v := int64(0); v < n; v++ {
			if p.Degree(v) != c.Degree(int32(v)) {
				t.Fatalf("Degree(%d) = %d, explicit %d", v, p.Degree(v), c.Degree(int32(v)))
			}
		}
	}
}

func TestEachArcMatchesMaterialized(t *testing.T) {
	g := rng.New(4)
	a := randomUndirected(g, 6, 3, 0.2)
	b := randomUndirected(g, 5, 3, 0.2)
	p := MustProduct(a, b)
	seen := map[[2]int64]bool{}
	var count int64
	p.EachArc(func(u, v int64) bool {
		key := [2]int64{u, v}
		if seen[key] {
			t.Fatalf("arc (%d,%d) emitted twice", u, v)
		}
		seen[key] = true
		count++
		return true
	})
	if count != p.NumArcs() {
		t.Fatalf("EachArc emitted %d arcs, NumArcs = %d", count, p.NumArcs())
	}
	c := materialize(t, p)
	c.EachArc(func(u, v int32) bool {
		if !seen[[2]int64{int64(u), int64(v)}] {
			t.Fatalf("materialized arc (%d,%d) missing from stream", u, v)
		}
		return true
	})
}

func TestEachNeighborSortedAndComplete(t *testing.T) {
	g := rng.New(5)
	a := randomUndirected(g, 6, 3, 0.3)
	b := randomUndirected(g, 7, 3, 0.3)
	p := MustProduct(a, b)
	c := materialize(t, p)
	for v := int64(0); v < p.NumVertices(); v++ {
		var got []int64
		p.EachNeighbor(v, func(u int64) bool {
			got = append(got, u)
			return true
		})
		want := c.Neighbors(int32(v))
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d neighbors, want %d", v, len(got), len(want))
		}
		for x := range want {
			if got[x] != int64(want[x]) {
				t.Fatalf("vertex %d neighbor %d: %d vs %d", v, x, got[x], want[x])
			}
		}
	}
}

// --- degree formulas (§III.A) ---

func TestDegreeFormulaAllLoopRegimes(t *testing.T) {
	g := rng.New(6)
	cases := []struct {
		name           string
		loopsA, loopsB float64
	}{
		{"no loops", 0, 0},
		{"loops in B", 0, 0.5},
		{"loops in A", 0.5, 0},
		{"loops in both", 0.5, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := randomUndirected(g, 8, 3, tc.loopsA)
			b := randomUndirected(g, 7, 3, tc.loopsB)
			p := MustProduct(a, b)
			c := materialize(t, p)
			for v := int64(0); v < p.NumVertices(); v++ {
				if p.Degree(v) != c.Degree(int32(v)) {
					t.Fatalf("degree(%d) = %d, explicit %d", v, p.Degree(v), c.Degree(int32(v)))
				}
			}
		})
	}
}

func TestOutInDegreesKron(t *testing.T) {
	g := rng.New(7)
	a := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 1}, {U: 4, V: 4}}, false)
	b := randomUndirected(g, 6, 3, 0.3)
	p := MustProduct(a, b)
	c := materialize(t, p)
	cs := sparse.Adjacency(c)
	wantOut := cs.RowSums()
	wantIn := cs.ColSums()
	dOut := OutDegrees(p)
	dIn := InDegrees(p)
	for v := int64(0); v < p.NumVertices(); v++ {
		if dOut.At(v) != wantOut[v] {
			t.Fatalf("out-degree(%d) = %d, want %d", v, dOut.At(v), wantOut[v])
		}
		if dIn.At(v) != wantIn[v] {
			t.Fatalf("in-degree(%d) = %d, want %d", v, dIn.At(v), wantIn[v])
		}
	}
}

func TestMaxDegree(t *testing.T) {
	g := rng.New(8)
	for trial := 0; trial < 20; trial++ {
		a := randomUndirected(g, 5+g.Intn(8), 3, g.Float64())
		b := randomUndirected(g, 5+g.Intn(8), 3, g.Float64())
		p := MustProduct(a, b)
		if trial%2 == 1 {
			p = MustProduct(a, b, randomUndirected(g, 2+g.Intn(5), 2, g.Float64()))
		}
		d, v := p.MaxDegree()
		if got := p.Degree(v); got != d {
			t.Fatalf("MaxDegree witness %d has degree %d, claimed %d", v, got, d)
		}
		for u := int64(0); u < p.NumVertices(); u++ {
			if p.Degree(u) > d {
				t.Fatalf("vertex %d has degree %d > claimed max %d", u, p.Degree(u), d)
			}
		}
	}
}

// --- Thm. 1 / Cor. 1 / general: vertex participation ---

func TestVertexParticipationAllRegimes(t *testing.T) {
	g := rng.New(9)
	cases := []struct {
		name           string
		loopsA, loopsB float64
	}{
		{"Thm1 no loops", 0, 0},
		{"Cor1 loops in B", 0, 0.6},
		{"loops in A only", 0.6, 0},
		{"general both loops", 0.6, 0.6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				a := randomUndirected(g, 5+g.Intn(8), 3.5, tc.loopsA)
				b := randomUndirected(g, 4+g.Intn(8), 3.5, tc.loopsB)
				p := MustProduct(a, b)
				tc2, err := VertexParticipation(p)
				if err != nil {
					t.Fatal(err)
				}
				c := materialize(t, p)
				want := triangle.Count(c).PerVertex
				got := tc2.Vector()
				if !sparse.EqualVec(got, want) {
					t.Fatalf("trial %d: t_C formula disagrees with direct count\nformula %v\ndirect  %v",
						trial, got, want)
				}
			}
		})
	}
}

// The specialized two-factor theorems, kept as oracles for the general
// expansions that VertexParticipation and EdgeParticipation implement.

func requireTwoUndirected(p *Product) (a, b *graph.Graph, err error) {
	if a, b, err = p.pair("the specialization"); err != nil {
		return nil, nil, err
	}
	if !p.IsSymmetric() {
		return nil, nil, errors.New("kron: formula requires undirected factors")
	}
	return a, b, nil
}

// VertexParticipationNoLoops is Thm. 1 specialized: t_C = 2·t_A ⊗ t_B.
// Errors unless both factors are loop-free and undirected.
func VertexParticipationNoLoops(p *Product, sa, sb *FactorTriangleStats) (*KronVecSum, error) {
	a, b, err := requireTwoUndirected(p)
	if err != nil {
		return nil, err
	}
	if a.HasAnyLoop() || b.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 1 requires loop-free factors")
	}
	return &KronVecSum{Terms: []Term{{Coef: 2, Vecs: [][]int64{sa.T, sb.T}}}, Den: 1}, nil
}

// VertexParticipationLoopsInB is Cor. 1 specialized:
// t_C = t_A ⊗ diag(B³), for loop-free A and arbitrary undirected B.
func VertexParticipationLoopsInB(p *Product, sa, sb *FactorTriangleStats) (*KronVecSum, error) {
	a, _, err := requireTwoUndirected(p)
	if err != nil {
		return nil, err
	}
	if a.HasAnyLoop() {
		return nil, errors.New("kron: Cor. 1 requires a loop-free left factor")
	}
	return pairVec(sa.T, sb.DiagCube), nil
}

// EdgeParticipationNoLoops is Thm. 2 specialized: Δ_C = Δ_A ⊗ Δ_B.
func EdgeParticipationNoLoops(p *Product, sa, sb *FactorTriangleStats) (*KronMatSum, error) {
	a, b, err := requireTwoUndirected(p)
	if err != nil {
		return nil, err
	}
	if a.HasAnyLoop() || b.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 2 requires loop-free factors")
	}
	return pairMat(p, sa.Delta, sb.Delta), nil
}

// EdgeParticipationLoopsInB is Cor. 2 specialized:
// Δ_C = Δ_A ⊗ (B ∘ B²), for loop-free A.
func EdgeParticipationLoopsInB(p *Product, sa, sb *FactorTriangleStats) (*KronMatSum, error) {
	a, _, err := requireTwoUndirected(p)
	if err != nil {
		return nil, err
	}
	if a.HasAnyLoop() {
		return nil, errors.New("kron: Cor. 2 requires a loop-free left factor")
	}
	return pairMat(p, sa.Delta, sb.HadSquare), nil
}

func TestVertexParticipationSpecializations(t *testing.T) {
	g := rng.New(10)
	// Thm. 1: specialized == general == direct.
	a := randomUndirected(g, 9, 4, 0)
	b := randomUndirected(g, 8, 4, 0)
	p := MustProduct(a, b)
	sa, sb := ComputeFactorStats(a), ComputeFactorStats(b)
	spec, err := VertexParticipationNoLoops(p, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualVec(spec.Vector(), gen.Vector()) {
		t.Fatal("Thm. 1 specialization disagrees with general formula")
	}
	// Cor. 1: B with loops.
	bl := b.WithAllLoops()
	p2 := MustProduct(a, bl)
	sbl := ComputeFactorStats(bl)
	spec2, err := VertexParticipationLoopsInB(p2, sa, sbl)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := VertexParticipation(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualVec(spec2.Vector(), gen2.Vector()) {
		t.Fatal("Cor. 1 specialization disagrees with general formula")
	}
	// Preconditions enforced.
	if _, err := VertexParticipationNoLoops(p2, sa, sbl); err == nil {
		t.Error("Thm. 1 constructor accepted loops")
	}
	if _, err := VertexParticipationLoopsInB(MustProduct(bl, a), sbl, sa); err == nil {
		t.Error("Cor. 1 constructor accepted loops in A")
	}
}

func TestVertexParticipationEvenWithoutLoops(t *testing.T) {
	// Without self loops every vertex of C has an even triangle count
	// (remark under Thm. 1).
	g := rng.New(11)
	for trial := 0; trial < 8; trial++ {
		a := randomUndirected(g, 6+g.Intn(8), 4, 0)
		b := randomUndirected(g, 6+g.Intn(8), 4, 0)
		tc, err := VertexParticipation(MustProduct(a, b))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range tc.Vector() {
			if x%2 != 0 {
				t.Fatalf("odd triangle count %d in loop-free product", x)
			}
		}
	}
}

func TestTriangleTotalSixFold(t *testing.T) {
	// τ(C) = 6 τ(A) τ(B) for loop-free factors.
	g := rng.New(12)
	for trial := 0; trial < 8; trial++ {
		a := randomUndirected(g, 6+g.Intn(10), 4, 0)
		b := randomUndirected(g, 6+g.Intn(10), 4, 0)
		p := MustProduct(a, b)
		total, err := TriangleTotal(p)
		if err != nil {
			t.Fatal(err)
		}
		ta := triangle.Count(a).Total
		tb := triangle.Count(b).Total
		if total != 6*ta*tb {
			t.Fatalf("τ(C) = %d, want 6·%d·%d = %d", total, ta, tb, 6*ta*tb)
		}
		// And against the direct count.
		c := materialize(t, p)
		if direct := triangle.Count(c).Total; direct != total {
			t.Fatalf("τ(C) formula %d != direct %d", total, direct)
		}
	}
}

// --- Thm. 2 / Cor. 2 / general: edge participation ---

func TestEdgeParticipationAllRegimes(t *testing.T) {
	g := rng.New(13)
	cases := []struct {
		name           string
		loopsA, loopsB float64
	}{
		{"Thm2 no loops", 0, 0},
		{"Cor2 loops in B", 0, 0.6},
		{"loops in A only", 0.6, 0},
		{"general both loops", 0.6, 0.6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				a := randomUndirected(g, 4+g.Intn(7), 3.5, tc.loopsA)
				b := randomUndirected(g, 4+g.Intn(7), 3.5, tc.loopsB)
				p := MustProduct(a, b)
				dc, err := EdgeParticipation(p)
				if err != nil {
					t.Fatal(err)
				}
				c := materialize(t, p)
				want := triangle.Count(c).EdgeDelta
				if !slices.Equal(dc.Vector(), want) {
					t.Fatalf("trial %d: Δ_C formula disagrees with direct count", trial)
				}
				// Lazy At is the direct Δ on the arcs and 0 off them.
				n := p.NumVertices()
				for s := 0; s < 100; s++ {
					u, v := g.Int64n(n), g.Int64n(n)
					var w int64
					if a := c.ArcIndex(int32(u), int32(v)); a >= 0 {
						w = want[a]
					}
					if dc.At(u, v) != w {
						t.Fatalf("Δ At(%d,%d) lazy %d != direct %d", u, v, dc.At(u, v), w)
					}
				}
			}
		})
	}
}

func TestEdgeParticipationSpecializations(t *testing.T) {
	g := rng.New(14)
	a := randomUndirected(g, 8, 4, 0)
	b := randomUndirected(g, 7, 4, 0)
	sa, sb := ComputeFactorStats(a), ComputeFactorStats(b)
	p := MustProduct(a, b)
	spec, err := EdgeParticipationNoLoops(p, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := EdgeParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	if c := materialize(t, p); !slices.Equal(arcValues(spec, c), arcValues(gen, c)) {
		t.Fatal("Thm. 2 specialization disagrees with general formula")
	}
	bl := b.WithAllLoops()
	sbl := ComputeFactorStats(bl)
	p2 := MustProduct(a, bl)
	spec2, err := EdgeParticipationLoopsInB(p2, sa, sbl)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := EdgeParticipation(p2)
	if err != nil {
		t.Fatal(err)
	}
	if c := materialize(t, p2); !slices.Equal(arcValues(spec2, c), arcValues(gen2, c)) {
		t.Fatal("Cor. 2 specialization disagrees with general formula")
	}
}

func TestEdgeParticipationConsistentWithVertex(t *testing.T) {
	// t_C = ½ Δ_C · 1.
	g := rng.New(15)
	a := randomUndirected(g, 7, 4, 0.4)
	b := randomUndirected(g, 6, 4, 0.4)
	p := MustProduct(a, b)
	tc, err := VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := EdgeParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	c := materialize(t, p)
	d := arcValues(dc, c)
	tv := tc.Vector()
	for v := range tv {
		lo := c.ArcOffset(int32(v))
		if rows := sparse.SumVec(d[lo : lo+c.OutDegreeRaw(int32(v))]); rows != 2*tv[v] {
			t.Fatalf("Δ_C·1 != 2 t_C at %d: %d vs %d", v, rows, 2*tv[v])
		}
	}
}

func TestDirectedFormulaRejected(t *testing.T) {
	dir := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, false)
	und := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, true)
	p := MustProduct(dir, und)
	if _, err := VertexParticipation(p); err == nil {
		t.Error("VertexParticipation accepted a directed factor")
	}
	if _, err := EdgeParticipation(p); err == nil {
		t.Error("EdgeParticipation accepted a directed factor")
	}
}

func TestNewProductValidation(t *testing.T) {
	empty := graph.FromEdges(0, nil, true)
	one := graph.FromEdges(1, nil, true)
	if _, err := NewProduct(empty, one); err == nil {
		t.Error("NewProduct accepted empty factor")
	}
}

// TestLoopTuningBoost quantifies the Rem. 1 tuning knob: adding a self
// loop at one factor-B vertex raises t_C exactly for the affected block
// and nowhere else.
func TestLoopTuningBoost(t *testing.T) {
	g := rng.New(16)
	a := randomUndirected(g, 8, 4, 0)
	b := randomUndirected(g, 7, 4, 0)
	const k = 3
	bBoosted := b.WithLoopAt(k)

	base, err := VertexParticipation(MustProduct(a, b))
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := VertexParticipation(MustProduct(a, bBoosted))
	if err != nil {
		t.Fatal(err)
	}
	p := MustProduct(a, bBoosted)
	c := materialize(t, p)
	direct := triangle.Count(c).PerVertex
	anyBoost := false
	for v := int64(0); v < p.NumVertices(); v++ {
		if boosted.At(v) != direct[v] {
			t.Fatalf("boosted formula wrong at %d", v)
		}
		kk := p.FactorsOf(v)[1]
		diff := boosted.At(v) - base.At(v)
		if diff < 0 {
			t.Fatalf("loop removed triangles at %d", v)
		}
		if diff > 0 {
			anyBoost = true
			// Boost only in blocks where B-vertex is k or a neighbor of
			// k (the loop at k creates new closed walks through k).
			if kk != k && !bBoosted.HasEdge(kk, k) {
				t.Fatalf("boost leaked to unrelated block %d", kk)
			}
		}
	}
	if !anyBoost {
		t.Skip("factor had no wedge at the boosted vertex; change seed")
	}
}

// TestDiagCubeLoopIdentity pins the remark under Cor. 1: for B = A + I
// with loop-free A, diag(B³)_k = 2·t_A(k) + 3·d_A(k) + 1 — the double
// counted triangles plus the four loop-involving 3-walks. This identity
// is what produces Fig. 7's bottom-panel numbers.
func TestDiagCubeLoopIdentity(t *testing.T) {
	g := rng.New(17)
	for trial := 0; trial < 10; trial++ {
		a := randomUndirected(g, 6+g.Intn(20), 4, 0)
		b := a.WithAllLoops()
		sb := ComputeFactorStats(b)
		sa := ComputeFactorStats(a)
		for k := 0; k < a.NumVertices(); k++ {
			want := 2*sa.T[k] + 3*a.Degree(int32(k)) + 1
			if sb.DiagCube[k] != want {
				t.Fatalf("trial %d: diag(B³)[%d] = %d, want 2t+3d+1 = %d",
					trial, k, sb.DiagCube[k], want)
			}
		}
	}
}

// TestTriangleTotalViaParticipationIdentity checks
// τ(A⊗B) = (Σ t_A)(Σ diag(B³))/3 for loop-free A (Cor. 1 summed).
func TestTriangleTotalViaParticipationIdentity(t *testing.T) {
	g := rng.New(18)
	a := randomUndirected(g, 12, 4, 0)
	b := randomUndirected(g, 10, 4, 0.5)
	p := MustProduct(a, b)
	total, err := TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := ComputeFactorStats(a), ComputeFactorStats(b)
	sum := sparse.SumVec(sa.T) * sparse.SumVec(sb.DiagCube)
	if sum%3 != 0 || total != sum/3 {
		t.Fatalf("τ = %d, identity gives %d/3", total, sum)
	}
}
