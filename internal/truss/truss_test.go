package truss

import (
	"slices"
	"testing"
	"testing/quick"

	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
)

// sameTruss reports whether two decompositions hold the same edges with
// the same trussness.
func sameTruss(a, b *Decomposition) bool {
	return slices.Equal(a.us, b.us) && slices.Equal(a.vs, b.vs) && slices.Equal(a.truss, b.truss)
}

func clique(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
		}
	}
	return graph.FromEdges(n, edges, true)
}

// hubCycle is the paper's Ex. 2 graph: a 4-cycle (vertices 1..4) plus a
// hub (vertex 0) connected to all cycle vertices. 5 vertices, 8 edges,
// 4 triangles.
func hubCycle() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, // hub edges
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 1}, // cycle edges
	}, true)
}

func randomUndirected(g *rng.Xoshiro256, n int, avgDeg float64) *graph.Graph {
	var edges []graph.Edge
	target := int(avgDeg * float64(n) / 2)
	for i := 0; i < target; i++ {
		u, v := int32(g.Intn(n)), int32(g.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.FromEdges(n, edges, true)
}

func TestCliqueTrussness(t *testing.T) {
	// Every edge of K_n has trussness n: each edge closes n-2 triangles.
	for _, n := range []int{3, 4, 5, 7} {
		d := Decompose(clique(n))
		if d.MaxK != n {
			t.Errorf("K_%d MaxK = %d, want %d", n, d.MaxK, n)
		}
		for _, e := range d.KTrussEdges(3) {
			if got := d.EdgeTruss(e.U, e.V); got != n {
				t.Errorf("K_%d edge (%d,%d) truss = %d, want %d", n, e.U, e.V, got, n)
			}
		}
		if len(d.KTrussEdges(n)) != n*(n-1)/2 {
			t.Errorf("K_%d: |T^(%d)| = %d", n, n, len(d.KTrussEdges(n)))
		}
		if len(d.KTrussEdges(n+1)) != 0 {
			t.Errorf("K_%d has a %d-truss", n, n+1)
		}
	}
}

func TestTriangleFreeTrussness(t *testing.T) {
	// C_6: no triangles, every edge trussness 2, no 3-truss.
	c6 := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0}}, true)
	d := Decompose(c6)
	if d.MaxK != 2 {
		t.Errorf("C_6 MaxK = %d, want 2", d.MaxK)
	}
	for i := 0; i < 6; i++ {
		u, v := int32(i), int32((i+1)%6)
		if d.EdgeTruss(u, v) != 2 {
			t.Errorf("C_6 edge (%d,%d) truss = %d, want 2", u, v, d.EdgeTruss(u, v))
		}
	}
	if len(d.KTrussEdges(3)) != 0 {
		t.Error("C_6 has a 3-truss")
	}
}

func TestHubCycleTrussness(t *testing.T) {
	// Paper Ex. 2: all 8 edges are in the 3-truss, none in the 4-truss.
	d := Decompose(hubCycle())
	if d.MaxK != 3 {
		t.Fatalf("hub-cycle MaxK = %d, want 3", d.MaxK)
	}
	if got := len(d.KTrussEdges(3)); got != 8 {
		t.Errorf("|T^(3)| = %d, want 8", got)
	}
	if got := len(d.KTrussEdges(4)); got != 0 {
		t.Errorf("|T^(4)| = %d, want 0", got)
	}
}

func TestDecomposeMatchesNaive(t *testing.T) {
	g := rng.New(61)
	for trial := 0; trial < 20; trial++ {
		gr := randomUndirected(g, 4+g.Intn(30), 5)
		fast := Decompose(gr)
		slow := NaiveDecompose(gr)
		if fast.MaxK != slow.MaxK {
			t.Fatalf("trial %d: MaxK %d vs naive %d", trial, fast.MaxK, slow.MaxK)
		}
		if !sameTruss(fast, slow) {
			t.Fatalf("trial %d: trussness differs:\n%v %v %v\nvs\n%v %v %v",
				trial, fast.us, fast.vs, fast.truss, slow.us, slow.vs, slow.truss)
		}
	}
}

func TestQuickDecomposeMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		gr := randomUndirected(g, 4+g.Intn(18), 4)
		return sameTruss(Decompose(gr), NaiveDecompose(gr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKTrussIsSubgraphProperty(t *testing.T) {
	// Every edge of the k-truss participates in >= k-2 triangles inside
	// the k-truss subgraph (Def. 7 verified directly).
	g := rng.New(62)
	for trial := 0; trial < 10; trial++ {
		gr := randomUndirected(g, 30, 8)
		d := Decompose(gr)
		for k := 3; k <= d.MaxK; k++ {
			edges := d.KTrussEdges(k)
			sub := graph.FromEdges(gr.NumVertices(), edges, true)
			for _, e := range edges {
				// Count common neighbors within sub.
				count := 0
				for _, w := range sub.Neighbors(e.U) {
					if sub.HasEdge(e.V, w) {
						count++
					}
				}
				if count < k-2 {
					t.Fatalf("edge (%d,%d) has %d triangles in %d-truss", e.U, e.V, count, k)
				}
			}
		}
	}
}

func TestTrussnessMonotone(t *testing.T) {
	// T^(k+1) ⊆ T^(k).
	g := rng.New(63)
	gr := randomUndirected(g, 40, 8)
	d := Decompose(gr)
	for k := 3; k < d.MaxK; k++ {
		inK := map[graph.Edge]bool{}
		for _, e := range d.KTrussEdges(k) {
			inK[e] = true
		}
		for _, e := range d.KTrussEdges(k + 1) {
			if !inK[e] {
				t.Fatalf("edge %v in %d-truss but not %d-truss", e, k+1, k)
			}
		}
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	a := Decompose(clique(4))
	b := Decompose(clique(4).WithAllLoops())
	if !sameTruss(a, b) || a.MaxK != b.MaxK {
		t.Error("self loops changed truss decomposition")
	}
}

func TestEdgeTrussMissingEdge(t *testing.T) {
	d := Decompose(clique(4))
	if d.EdgeTruss(0, 0) != 0 {
		t.Error("loop edge should report 0")
	}
	d2 := Decompose(graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}}, true))
	if d2.EdgeTruss(2, 3) != 0 {
		t.Error("absent edge should report 0")
	}
	if d2.EdgeTruss(0, 1) != 2 {
		t.Error("lone edge should have trussness 2")
	}
}

func TestEmptyGraph(t *testing.T) {
	d := Decompose(graph.FromEdges(5, nil, true))
	if d.NumEdges() != 0 || d.MaxK != 0 {
		t.Errorf("empty graph: edges=%d MaxK=%d", d.NumEdges(), d.MaxK)
	}
}

func TestTrussSizes(t *testing.T) {
	d := Decompose(clique(5))
	sizes := d.TrussSizes()
	for k := 3; k <= 5; k++ {
		if sizes[k] != 10 {
			t.Errorf("K_5 |T^(%d)| = %d, want 10", k, sizes[k])
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	g := rng.New(1)
	gr := randomUndirected(g, 5000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decompose(gr)
	}
}
