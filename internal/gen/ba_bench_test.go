package gen

import (
	"testing"

	"kronvalid/internal/gio"
	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
)

// barabasiAlbertMapDedup is the seed implementation's inner loop — a
// freshly allocated map[int32]bool per vertex — kept verbatim as the
// behavior pin for the small-slice rewrite: both must draw the same rng
// sequence and build the same graph. (The public BarabasiAlbert has
// since moved onto the communication-free retracing core.)
func barabasiAlbertMapDedup(n, m int, seed uint64) *graph.Graph {
	g := rng.New(seed)
	var targets []int32
	var edges []graph.Edge
	for v := 1; v <= m; v++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(v)})
		targets = append(targets, 0, int32(v))
	}
	for v := m + 1; v < n; v++ {
		chosen := map[int32]bool{}
		order := make([]int32, 0, m)
		for len(order) < m {
			w := targets[g.Intn(len(targets))]
			if !chosen[w] {
				chosen[w] = true
				order = append(order, w)
			}
		}
		for _, w := range order {
			edges = append(edges, graph.Edge{U: int32(v), V: w})
			targets = append(targets, int32(v), w)
		}
	}
	return graph.FromEdges(n, edges, true)
}

// barabasiAlbertSliceDedup is the small-slice rewrite of the map inner
// loop (the former public BarabasiAlbert): same rng sequence, reused
// smallSet membership scan instead of a fresh map per vertex.
func barabasiAlbertSliceDedup(n, m int, seed uint64) *graph.Graph {
	g := rng.New(seed)
	var targets []int32
	var edges []graph.Edge
	for v := 1; v <= m; v++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(v)})
		targets = append(targets, 0, int32(v))
	}
	order := make(smallSet, 0, m)
	for v := m + 1; v < n; v++ {
		order = order[:0]
		for len(order) < m {
			w := targets[g.Intn(len(targets))]
			if !order.contains(w) {
				order = append(order, w)
			}
		}
		for _, w := range order {
			edges = append(edges, graph.Edge{U: int32(v), V: w})
			targets = append(targets, int32(v), w)
		}
	}
	return graph.FromEdges(n, edges, true)
}

// TestBarabasiAlbertMatchesMapBaseline pins that replacing the map with
// the reusable small-slice membership check changed no behavior: the
// accept/reject sequence, and therefore the graph, is identical.
func TestBarabasiAlbertMatchesMapBaseline(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		seed uint64
	}{{500, 3, 11}, {300, 1, 2}, {200, 8, 9}} {
		want := gio.GraphDigest(barabasiAlbertMapDedup(tc.n, tc.m, tc.seed))
		got := gio.GraphDigest(barabasiAlbertSliceDedup(tc.n, tc.m, tc.seed))
		if got != want {
			t.Errorf("BA(%d,%d,%d): slice-dedup digest %s != map baseline %s",
				tc.n, tc.m, tc.seed, got, want)
		}
	}
}

// BenchmarkBADedup measures the communication-free retracing core
// behind the public BarabasiAlbert.
func BenchmarkBADedup(b *testing.B) {
	const n, m = 20000, 8
	b.Run("retracing-core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BarabasiAlbert(n, m, 11)
		}
	})
}
