package graph

import (
	"fmt"
	"sort"
	"testing"

	"kronvalid/internal/rng"
)

// fromEdgesSort is the comparison-sort FromEdges, retained as the oracle
// of TestFromEdgesMatchesSortOracle and FuzzFromEdges: every arc (and
// its mirror) sorted by (source, target) with sort.Slice, then
// deduplicated in one pass.
func fromEdgesSort(n int, edges []Edge, symmetrize bool) *Graph {
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
		}
	}
	all := append([]Edge(nil), edges...)
	if symmetrize {
		for _, e := range edges {
			if e.U != e.V {
				all = append(all, Edge{e.V, e.U})
			}
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].U != all[b].U {
			return all[a].U < all[b].U
		}
		return all[a].V < all[b].V
	})
	offsets := make([]int64, n+1)
	nbrs := make([]int32, 0, len(all))
	var prev Edge = Edge{-1, -1}
	for _, e := range all {
		if e == prev {
			continue
		}
		prev = e
		nbrs = append(nbrs, e.V)
		offsets[e.U+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	return &Graph{n: n, offsets: offsets, nbrs: nbrs}
}

// build runs a FromEdges variant, returning its graph or its panic.
func build(from func(int, []Edge, bool) *Graph, n int, edges []Edge, sym bool) (g *Graph, panicked any) {
	defer func() { panicked = recover() }()
	return from(n, edges, sym), nil
}

// checkFromEdges compares FromEdges with the oracle on one input: the
// same graph, or the same panic message, and a symmetrized graph that
// answers IsSymmetric like a scan. The input is left unchanged.
func checkFromEdges(t *testing.T, name string, n int, edges []Edge, sym bool) {
	t.Helper()
	before := append([]Edge(nil), edges...)
	want, wantPanic := build(fromEdgesSort, n, edges, sym)
	got, gotPanic := build(FromEdges, n, edges, sym)
	switch {
	case fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic):
		t.Fatalf("%s: panic %v, oracle %v", name, gotPanic, wantPanic)
	case wantPanic != nil:
	case !got.Equal(want):
		t.Fatalf("%s: graph %v differs from the oracle's %v", name, got, want)
	case got.IsSymmetric() != scanSymmetric(got):
		t.Fatalf("%s: IsSymmetric = %v, a scan says otherwise", name, got.IsSymmetric())
	}
	for i := range edges {
		if edges[i] != before[i] {
			t.Fatalf("%s: FromEdges modified its input", name)
		}
	}
}

func TestFromEdgesMatchesSortOracle(t *testing.T) {
	g := rng.New(71)
	for trial := 0; trial < 60; trial++ {
		n := 1 + g.Intn(300)
		edges := make([]Edge, g.Intn(4*n))
		for i := range edges {
			// A narrow id range for some trials forces duplicates and loops.
			span := n
			if trial%3 == 0 {
				span = 1 + g.Intn(min(n, 6))
			}
			edges[i] = Edge{int32(g.Intn(span)), int32(g.Intn(span))}
		}
		for _, sym := range []bool{false, true} {
			checkFromEdges(t, fmt.Sprintf("trial %d sym=%v", trial, sym), n, edges, sym)
		}
	}
	for _, sym := range []bool{false, true} {
		checkFromEdges(t, "empty", 0, nil, sym)
		checkFromEdges(t, "edgeless", 5, nil, sym)
		checkFromEdges(t, "loops only", 4, []Edge{{3, 3}, {1, 1}, {3, 3}}, sym)
		checkFromEdges(t, "target out of range", 3, []Edge{{0, 1}, {1, 3}, {-1, 0}}, sym)
		checkFromEdges(t, "source out of range", 3, []Edge{{0, 1}, {-1, 0}, {1, 3}}, sym)
	}
}

// FuzzFromEdges: byte pairs are arcs over ids 0..n, so n itself is out of
// range and the panic path is fuzzed beside duplicates and loops.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 0, 0, 1, 3, 3}, true)
	f.Add(uint8(4), []byte{0, 1, 1, 0, 2, 2, 3, 1}, false)
	f.Add(uint8(2), []byte{0, 2}, true)
	f.Add(uint8(0), []byte{}, false)
	f.Fuzz(func(t *testing.T, n uint8, raw []byte, sym bool) {
		edges := make([]Edge, len(raw)/2)
		for i := range edges {
			edges[i] = Edge{int32(raw[2*i]) % (int32(n) + 1), int32(raw[2*i+1]) % (int32(n) + 1)}
		}
		checkFromEdges(t, "fuzz", int(n), edges, sym)
	})
}

// BenchmarkFromEdges builds an undirected graph the size of a kron-truth
// factor (16 384 vertices, 65 536 edges, some repeated) from its edges.
func BenchmarkFromEdges(b *testing.B) {
	const n = 1 << 14
	g := rng.New(72)
	edges := make([]Edge, 4*n)
	for i := range edges {
		edges[i] = Edge{int32(g.Intn(n)), int32(g.Intn(n))}
	}
	for b.Loop() {
		FromEdges(n, edges, true)
	}
}
