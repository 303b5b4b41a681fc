package gen

import (
	"fmt"
	"testing"

	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
)

// webGraphOracle is the append-and-FromEdges WebGraph, retained as the
// oracle of TestWebGraphMatchesOracle: every row, the edge list and the
// target list grow by append, and FromEdges sorts the edges into a CSR.
func webGraphOracle(n, m int, pt float64, seed uint64) *graph.Graph {
	g := rng.New(seed)
	var targets []int32
	adj := make([][]int32, n)
	var edges []graph.Edge
	addEdge := func(u, v int32) {
		edges = append(edges, graph.Edge{U: u, V: v})
		targets = append(targets, u, v)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for v := 1; v <= m; v++ {
		addEdge(0, int32(v))
	}
	order := make(smallSet, 0, m)
	for v := m + 1; v < n; v++ {
		order = order[:0]
		var prev int32 = -1
		for len(order) < m {
			var w int32 = -1
			if prev >= 0 && g.Float64() < pt && len(adj[prev]) > 0 {
				w = adj[prev][g.Intn(len(adj[prev]))]
			}
			if w < 0 || w == int32(v) || order.contains(w) {
				w = targets[g.Intn(len(targets))]
			}
			if w == int32(v) || order.contains(w) {
				continue
			}
			order = append(order, w)
			prev = w
		}
		for _, w := range order {
			addEdge(int32(v), w)
		}
	}
	return graph.FromEdges(n, edges, true)
}

// TestWebGraphMatchesOracle: the pooled-row builder yields the oracle's
// graph, symmetric, at the smallest sizes (n = m+1), at m = 1, at both
// ends of pt, and where hubs outgrow their pooled 2m slots, which the
// test checks happens.
func TestWebGraphMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		n, m  int
		pt    float64
		spill bool // some row outgrows 2m at some seed
	}{
		{2, 1, 0.7, false},
		{4, 3, 0.5, false},
		{300, 1, 0, true},
		{300, 1, 1, true},
		{500, 3, 0, true},
		{500, 3, 1, true},
		{2000, 4, 0.7, true},
		{4096, 8, 0.3, true},
	} {
		spilled := false
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("n=%d,m=%d,pt=%v,seed=%d", c.n, c.m, c.pt, seed)
			got, want := WebGraph(c.n, c.m, c.pt, seed), webGraphOracle(c.n, c.m, c.pt, seed)
			if !got.Equal(want) {
				t.Fatalf("%s: WebGraph differs from the append-and-FromEdges oracle", name)
			}
			if !got.IsSymmetric() {
				t.Errorf("%s: not symmetric", name)
			}
			if arcs := int64(2 * (c.m + (c.n-c.m-1)*c.m)); got.NumArcs() != arcs {
				t.Errorf("%s: %d arcs, want %d", name, got.NumArcs(), arcs)
			}
			for v := range got.NumVertices() {
				spilled = spilled || got.OutDegreeRaw(int32(v)) > int64(2*c.m)
			}
		}
		if spilled != c.spill {
			t.Errorf("n=%d,m=%d,pt=%v: a row outgrew its %d pooled slots: %v, want %v", c.n, c.m, c.pt, 2*c.m, spilled, c.spill)
		}
	}
}

// BenchmarkWebGraph times one kron-truth factor's build.
func BenchmarkWebGraph(b *testing.B) {
	for b.Loop() {
		WebGraph(1<<14, 4, 0.7, 1000)
	}
}
