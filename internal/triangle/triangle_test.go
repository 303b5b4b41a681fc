package triangle

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
)

// randomUndirected builds a random undirected graph, optionally with some
// self loops.
func randomUndirected(g *rng.Xoshiro256, n int, avgDeg float64, loops bool) *graph.Graph {
	var edges []graph.Edge
	target := int(avgDeg * float64(n) / 2)
	for i := 0; i < target; i++ {
		u, v := int32(g.Intn(n)), int32(g.Intn(n))
		if u == v && !loops {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges, true)
}

// bruteForce computes t and Δ by testing all vertex triples: O(n^3),
// ground truth for everything else.
func bruteForce(gr *graph.Graph) (t []int64, delta *sparse.Matrix, total int64) {
	work := gr.WithoutLoops()
	n := work.NumVertices()
	t = make([]int64, n)
	var ts []sparse.Triplet
	dvals := map[[2]int32]int64{}
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if !work.HasEdge(u, v) {
				continue
			}
			for w := v + 1; w < int32(n); w++ {
				if work.HasEdge(u, w) && work.HasEdge(v, w) {
					total++
					t[u]++
					t[v]++
					t[w]++
					for _, e := range [][2]int32{{u, v}, {v, u}, {u, w}, {w, u}, {v, w}, {w, v}} {
						dvals[e]++
					}
				}
			}
		}
	}
	for e, c := range dvals {
		ts = append(ts, sparse.Triplet{Row: int(e[0]), Col: int(e[1]), Val: c})
	}
	delta = sparse.FromTriplets(n, n, ts)
	return t, delta, total
}

// onArcs reports whether d is a per-edge statistic of g equal to m: one
// value per arc, m's entry at every arc, 0 at every loop arc, and no mass
// of the nonnegative m off the arcs.
func onArcs(g *graph.Graph, d []int64, m *sparse.Matrix) bool {
	if int64(len(d)) != g.NumArcs() || sparse.SumVec(d) != m.Total() {
		return false
	}
	a, ok := 0, true
	g.EachArc(func(u, v int32) bool {
		ok = d[a] == m.At(int(u), int(v)) && (u != v || d[a] == 0)
		a++
		return ok
	})
	return ok
}

// algebraic computes t_A = ½ diag(A'^3) and Δ_A = A' ∘ A'^2 with A' the
// loop-free adjacency — the paper's Def. 5 / Def. 6 written in matrices.
func algebraic(gr *graph.Graph) (t []int64, delta *sparse.Matrix) {
	a := sparse.Adjacency(gr.WithoutLoops())
	a2 := a.Mul(a)
	cube := a2.Mul(a).Diag()
	t = make([]int64, len(cube))
	for i, v := range cube {
		if v%2 != 0 {
			panic("odd diag(A^3) entry")
		}
		t[i] = v / 2
	}
	return t, a.Hadamard(a2)
}

func TestCountAgainstBruteForce(t *testing.T) {
	g := rng.New(51)
	for trial := 0; trial < 25; trial++ {
		n := 3 + g.Intn(40)
		gr := randomUndirected(g, n, 4, trial%3 == 0)
		res := Count(gr)
		wantT, wantD, wantTotal := bruteForce(gr)
		if !sparse.EqualVec(res.PerVertex, wantT) {
			t.Fatalf("trial %d: PerVertex = %v, want %v", trial, res.PerVertex, wantT)
		}
		if !onArcs(gr, res.EdgeDelta, wantD) {
			t.Fatalf("trial %d: EdgeDelta mismatch:\n%v\nvs\n%v", trial, res.EdgeDelta, wantD)
		}
		if res.Total != wantTotal {
			t.Fatalf("trial %d: Total = %d, want %d", trial, res.Total, wantTotal)
		}
	}
}

func TestCountAgainstAlgebraic(t *testing.T) {
	g := rng.New(52)
	for trial := 0; trial < 25; trial++ {
		n := 3 + g.Intn(60)
		gr := randomUndirected(g, n, 6, trial%2 == 0)
		res := Count(gr)
		wantT, wantD := algebraic(gr)
		if !sparse.EqualVec(res.PerVertex, wantT) {
			t.Fatalf("trial %d: per-vertex disagrees with ½diag(A³)", trial)
		}
		if !onArcs(gr, res.EdgeDelta, wantD) {
			t.Fatalf("trial %d: edge delta disagrees with A∘A²", trial)
		}
	}
}

func TestCountClique(t *testing.T) {
	// K_n: each vertex in C(n-1,2) triangles, each edge in n-2, total C(n,3).
	for _, n := range []int{3, 4, 5, 8, 12} {
		var edges []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
		gr := graph.FromEdges(n, edges, true)
		res := Count(gr)
		nn := int64(n)
		wantVertex := (nn - 1) * (nn - 2) / 2
		wantTotal := nn * (nn - 1) * (nn - 2) / 6
		for v, tv := range res.PerVertex {
			if tv != wantVertex {
				t.Errorf("K_%d: t[%d] = %d, want %d", n, v, tv, wantVertex)
			}
		}
		if res.Total != wantTotal {
			t.Errorf("K_%d: total = %d, want %d", n, res.Total, wantTotal)
		}
		for a, v := range res.EdgeDelta {
			if v != nn-2 {
				t.Errorf("K_%d: Δ at arc %d = %d, want %d", n, a, v, nn-2)
				break
			}
		}
		if int64(len(res.EdgeDelta)) != nn*(nn-1) {
			t.Errorf("K_%d: Δ has %d arcs", n, len(res.EdgeDelta))
		}
	}
}

func TestCountTriangleFree(t *testing.T) {
	// Even cycle C_6 has no triangles.
	gr := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0}}, true)
	res := Count(gr)
	if res.Total != 0 || sparse.SumVec(res.PerVertex) != 0 || sparse.SumVec(res.EdgeDelta) != 0 {
		t.Fatal("C_6 should be triangle-free")
	}
}

func TestSelfLoopsDoNotCreateTriangles(t *testing.T) {
	g := rng.New(53)
	for trial := 0; trial < 10; trial++ {
		gr := randomUndirected(g, 20, 4, false)
		withLoops := gr.WithAllLoops()
		a, b := Count(gr), Count(withLoops)
		if a.Total != b.Total || !sparse.EqualVec(a.PerVertex, b.PerVertex) {
			t.Fatal("self loops changed triangle statistics")
		}
		// Δ at each arc of gr is Δ at the same arc of withLoops.
		gr.EachArc(func(u, v int32) bool {
			if a.EdgeDelta[gr.ArcIndex(u, v)] != b.EdgeDelta[withLoops.ArcIndex(u, v)] {
				t.Fatalf("self loops changed Δ(%d,%d)", u, v)
			}
			return true
		})
	}
}

func TestCountPanicsOnDirected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on directed graph")
		}
	}()
	Count(graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, false))
}

func TestTotalsConsistency(t *testing.T) {
	g := rng.New(54)
	gr := randomUndirected(g, 50, 6, false)
	res := Count(gr)
	if TotalFromPerVertex(res.PerVertex) != res.Total {
		t.Error("Σt/3 != τ")
	}
	if TotalFromEdgeDelta(res.EdgeDelta) != res.Total {
		t.Error("ΣΔ/6 != τ")
	}
	// t_A = ½ Δ_A·1 (stated under Def. 6).
	for i := int32(0); int(i) < gr.NumVertices(); i++ {
		lo := gr.ArcOffset(i)
		if sparse.SumVec(res.EdgeDelta[lo:lo+gr.OutDegreeRaw(i)]) != 2*res.PerVertex[i] {
			t.Fatalf("Δ·1 != 2t at %d", i)
		}
	}
}

func TestEachTriangleMatchesCount(t *testing.T) {
	g := rng.New(55)
	for trial := 0; trial < 15; trial++ {
		gr := randomUndirected(g, 30, 5, trial%2 == 0)
		perVertex := make([]int64, gr.NumVertices())
		var total int64
		seen := map[[3]int32]bool{}
		EachTriangle(gr, func(u, v, w int32) {
			if u == v || v == w || u == w {
				t.Fatal("degenerate triangle")
			}
			key := sorted3(u, v, w)
			if seen[key] {
				t.Fatalf("triangle %v enumerated twice", key)
			}
			seen[key] = true
			total++
			perVertex[u]++
			perVertex[v]++
			perVertex[w]++
		})
		res := Count(gr)
		if total != res.Total || !sparse.EqualVec(perVertex, res.PerVertex) {
			t.Fatal("EachTriangle disagrees with Count")
		}
	}
}

func TestEachTriangleOnDirectedUsesUndirectedVersion(t *testing.T) {
	// Directed 3-cycle: undirected version is one triangle.
	gr := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, false)
	count := 0
	EachTriangle(gr, func(u, v, w int32) { count++ })
	if count != 1 {
		t.Fatalf("directed 3-cycle: %d triangles, want 1", count)
	}
}

func TestWedgeChecksPositiveAndBounded(t *testing.T) {
	g := rng.New(56)
	gr := randomUndirected(g, 200, 8, false)
	res := Count(gr)
	if res.Total > 0 && res.WedgeChecks == 0 {
		t.Error("found triangles with zero wedge checks")
	}
	// Forward-algorithm comparisons are bounded by sum over edges of
	// min-degree side; a very loose upper bound is arcs * maxdeg.
	m := gr.NumArcs()
	var maxd int64
	for v := 0; v < gr.NumVertices(); v++ {
		if d := gr.OutDegreeRaw(int32(v)); d > maxd {
			maxd = d
		}
	}
	if res.WedgeChecks > m*maxd {
		t.Errorf("wedge checks %d exceed loose bound %d", res.WedgeChecks, m*maxd)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	// Triangle: all local CCs 1; global transitivity 1.
	tri := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, true)
	for v, cc := range LocalClusteringCoefficients(tri) {
		if math.Abs(cc-1) > 1e-12 {
			t.Errorf("triangle cc[%d] = %v", v, cc)
		}
	}
	if gcc := GlobalClusteringCoefficient(tri); math.Abs(gcc-1) > 1e-12 {
		t.Errorf("triangle transitivity = %v", gcc)
	}
	// Path 0-1-2: no triangles anywhere.
	path := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true)
	for v, cc := range LocalClusteringCoefficients(path) {
		if cc != 0 {
			t.Errorf("path cc[%d] = %v", v, cc)
		}
	}
	if GlobalClusteringCoefficient(path) != 0 {
		t.Error("path transitivity nonzero")
	}
	// Triangle 0-1-2 with pendant 2-3 and loops at 0 and 2: loops add no
	// degree, so cc = (1, 1, 1/3, 0) and transitivity 3·1 / 5 wedges.
	looped := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 0, V: 0}, {U: 2, V: 2}}, true)
	for v, cc := range LocalClusteringCoefficients(looped) {
		if want := []float64{1, 1, 1.0 / 3, 0}[v]; math.Abs(cc-want) > 1e-12 {
			t.Errorf("looped cc[%d] = %v, want %v", v, cc, want)
		}
	}
	if gcc := GlobalClusteringCoefficient(looped); math.Abs(gcc-0.6) > 1e-12 {
		t.Errorf("looped transitivity = %v, want 0.6", gcc)
	}
}

func TestQuickParityOfDiagCube(t *testing.T) {
	// Property: diag(A³) entries are even for symmetric loop-free A —
	// exercised via Count against algebraic on random graphs.
	f := func(seed uint64) bool {
		g := rng.New(seed)
		gr := randomUndirected(g, 3+g.Intn(25), 4, false)
		res := Count(gr)
		wantT, _ := algebraic(gr)
		return sparse.EqualVec(res.PerVertex, wantT)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sorted3(a, b, c int32) [3]int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int32{a, b, c}
}

func BenchmarkCount(b *testing.B) {
	g := rng.New(1)
	gr := randomUndirected(g, 20000, 20, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Count(gr)
	}
}

func TestNodeIteratorMatchesForward(t *testing.T) {
	g := rng.New(57)
	for trial := 0; trial < 15; trial++ {
		gr := randomUndirected(g, 5+g.Intn(40), 5, trial%2 == 0)
		fwd := Count(gr)
		naive := CountNodeIterator(gr)
		_, wantD, _ := bruteForce(gr)
		if !onArcs(gr, naive.EdgeDelta, wantD) {
			t.Fatalf("trial %d: node-iterator Δ is not the brute force's on the arcs", trial)
		}
		if fwd.Total != naive.Total {
			t.Fatalf("trial %d: totals %d vs %d", trial, fwd.Total, naive.Total)
		}
		if !sparse.EqualVec(fwd.PerVertex, naive.PerVertex) {
			t.Fatalf("trial %d: per-vertex disagreement", trial)
		}
		if !slices.Equal(fwd.EdgeDelta, naive.EdgeDelta) {
			t.Fatalf("trial %d: edge-delta disagreement", trial)
		}
	}
}

func TestForwardBeatsNodeIteratorOnSkew(t *testing.T) {
	// On a hub-dominated graph the degree ordering must do asymptotically
	// fewer wedge checks than the unordered baseline: the hub's d² pairs
	// are exactly what Chiba-Nishizeki avoids.
	var edges []graph.Edge
	const leaves = 600
	for v := int32(1); v <= leaves; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v})
		if v > 1 {
			edges = append(edges, graph.Edge{U: v - 1, V: v})
		}
	}
	gr := graph.FromEdges(leaves+1, edges, true)
	fwd := Count(gr)
	naive := CountNodeIterator(gr)
	if fwd.Total != naive.Total {
		t.Fatal("totals differ")
	}
	if fwd.WedgeChecks*10 > naive.WedgeChecks {
		t.Errorf("forward %d wedge checks vs naive %d: expected >=10x gap",
			fwd.WedgeChecks, naive.WedgeChecks)
	}
}

func BenchmarkCountNodeIterator(b *testing.B) {
	g := rng.New(1)
	gr := randomUndirected(g, 20000, 20, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CountNodeIterator(gr)
	}
}
