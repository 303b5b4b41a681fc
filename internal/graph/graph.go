// Package graph provides the in-memory graph representation used for the
// Kronecker *factors*: compressed adjacency with sorted neighbor lists,
// supporting directed and undirected graphs, self loops, and vertex
// labels. Product graphs (C = A ⊗ B) are never represented with this
// package — they stay implicit in package kron — so vertex ids here fit
// int32 while product ids are int64.
//
// Conventions:
//   - Adjacency is directed at the representation level: Neighbors(u)
//     are the out-neighbors of u. An undirected graph stores both (u,v)
//     and (v,u); IsSymmetric reports whether that invariant holds.
//   - A self loop is a single arc (v, v).
//   - Degree(v) follows the paper's d_A = (A - I∘A)·1: out-degree
//     excluding the self loop. LoopAt reports the loop separately.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"

	"kronvalid/internal/sparse"
)

// Graph is an immutable compressed sparse adjacency structure. Build one
// with a Builder, FromEdges, FromSparse, or a generator in package gen.
type Graph struct {
	n       int
	offsets []int64 // len n+1
	nbrs    []int32 // sorted within each vertex's slice, no duplicates
	labels  []int32 // nil if unlabeled; else len n, values in [0, numLabels)
	nLabels int

	// sym memoizes IsSymmetric: symUnknown until the first call, then the
	// verdict. The adjacency never changes, so it cannot go stale; every
	// constructor and transform builds a new Graph, which starts unknown
	// and answers for its own arcs.
	sym atomic.Int32
}

const (
	symUnknown int32 = iota
	symYes
	symNo
)

// Edge is a directed arc (or one direction of an undirected edge).
type Edge struct {
	U, V int32
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumArcs returns the number of stored directed arcs (nnz of the
// adjacency matrix). For a symmetric graph each non-loop edge contributes
// two arcs; a self loop contributes one.
func (g *Graph) NumArcs() int64 { return int64(len(g.nbrs)) }

// NumLoops returns the number of self loops.
func (g *Graph) NumLoops() int64 {
	var loops int64
	for v := 0; v < g.n; v++ {
		if g.LoopAt(int32(v)) {
			loops++
		}
	}
	return loops
}

// NumEdgesUndirected returns the number of undirected edges, counting each
// symmetric pair once and each self loop once. It panics if the graph is
// not symmetric.
func (g *Graph) NumEdgesUndirected() int64 {
	if !g.IsSymmetric() {
		panic("graph: NumEdgesUndirected on a non-symmetric graph")
	}
	loops := g.NumLoops()
	return (g.NumArcs()-loops)/2 + loops
}

// Neighbors returns the sorted out-neighbors of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.nbrs[g.offsets[v]:g.offsets[v+1]]
}

// ArcOffset returns the index into the flattened arc array at which v's
// neighbor slice begins. Together with EachArc's ordering this lets
// callers maintain per-arc side arrays aligned with adjacency storage.
func (g *Graph) ArcOffset(v int32) int64 { return g.offsets[v] }

// OutDegreeRaw returns the raw out-degree of v including a self loop.
func (g *Graph) OutDegreeRaw(v int32) int64 {
	return g.offsets[v+1] - g.offsets[v]
}

// Degree returns the paper's degree d_A(v): out-degree excluding the self
// loop.
func (g *Graph) Degree(v int32) int64 {
	d := g.OutDegreeRaw(v)
	if g.LoopAt(v) {
		d--
	}
	return d
}

// Degrees returns the degree vector d_A = (A - I∘A)·1.
func (g *Graph) Degrees() []int64 {
	d := make([]int64, g.n)
	for v := 0; v < g.n; v++ {
		d[v] = g.Degree(int32(v))
	}
	return d
}

// HasEdge reports whether arc (u, v) exists, by binary search.
func (g *Graph) HasEdge(u, v int32) bool {
	return g.ArcIndex(u, v) >= 0
}

// ArcIndex returns the index of arc (u, v) in the flattened arc array
// (the position EachArc visits it at), or -1 if the arc does not exist.
// It lets per-arc side arrays (supports, census counts) be plain slices
// aligned with adjacency storage instead of maps.
func (g *Graph) ArcIndex(u, v int32) int64 {
	nb := g.Neighbors(u)
	k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	if k < len(nb) && nb[k] == v {
		return g.offsets[u] + int64(k)
	}
	return -1
}

// LoopAt reports whether v has a self loop.
func (g *Graph) LoopAt(v int32) bool { return g.HasEdge(v, v) }

// HasAnyLoop reports whether any vertex has a self loop.
func (g *Graph) HasAnyLoop() bool {
	for v := 0; v < g.n; v++ {
		if g.LoopAt(int32(v)) {
			return true
		}
	}
	return false
}

// IsSymmetric reports whether every arc (u,v) has a reverse arc (v,u),
// i.e. the graph is undirected. The arcs are scanned on the first call
// only (concurrent first calls may each scan; they store the same
// verdict), so guarding every closed form with it costs a load.
func (g *Graph) IsSymmetric() bool {
	if s := g.sym.Load(); s != symUnknown {
		return s == symYes
	}
	verdict := symYes
scan:
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if !g.HasEdge(v, int32(u)) {
				verdict = symNo
				break scan
			}
		}
	}
	g.sym.Store(verdict)
	return verdict == symYes
}

// EachArc calls fn for every stored arc (u, v) in sorted order, stopping
// early if fn returns false.
func (g *Graph) EachArc(fn func(u, v int32) bool) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if !fn(int32(u), v) {
				return
			}
		}
	}
}

// EachEdgeUndirected calls fn once per undirected edge with u <= v.
// It panics if the graph is not symmetric.
func (g *Graph) EachEdgeUndirected(fn func(u, v int32) bool) {
	if !g.IsSymmetric() {
		panic("graph: EachEdgeUndirected on a non-symmetric graph")
	}
	g.EachArc(func(u, v int32) bool {
		if u <= v {
			return fn(u, v)
		}
		return true
	})
}

// Arcs returns all arcs as a slice.
func (g *Graph) Arcs() []Edge {
	out := make([]Edge, 0, g.NumArcs())
	g.EachArc(func(u, v int32) bool {
		out = append(out, Edge{u, v})
		return true
	})
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		n:       g.n,
		offsets: append([]int64(nil), g.offsets...),
		nbrs:    append([]int32(nil), g.nbrs...),
		nLabels: g.nLabels,
	}
	if g.labels != nil {
		out.labels = append([]int32(nil), g.labels...)
	}
	return out
}

// Equal reports whether two graphs have identical vertex counts,
// adjacency, and labels.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || len(g.nbrs) != len(h.nbrs) || g.nLabels != h.nLabels {
		return false
	}
	for i := range g.offsets {
		if g.offsets[i] != h.offsets[i] {
			return false
		}
	}
	for i := range g.nbrs {
		if g.nbrs[i] != h.nbrs[i] {
			return false
		}
	}
	if (g.labels == nil) != (h.labels == nil) {
		return false
	}
	for i := range g.labels {
		if g.labels[i] != h.labels[i] {
			return false
		}
	}
	return true
}

// String summarizes the graph.
func (g *Graph) String() string {
	kind := "directed"
	if g.IsSymmetric() {
		kind = "undirected"
	}
	return fmt.Sprintf("graph.Graph{%s, n=%d, arcs=%d, loops=%d, labels=%d}",
		kind, g.n, g.NumArcs(), g.NumLoops(), g.nLabels)
}

// FromEdges builds a graph on n vertices from directed arcs, removing
// duplicates. If symmetrize is true each arc is mirrored, yielding an
// undirected graph.
func FromEdges(n int, edges []Edge, symmetrize bool) *Graph {
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

// FromCSR builds a graph directly from compressed-sparse-row arrays,
// taking ownership of both slices: offsets has len n+1 with
// offsets[0] == 0 and ends at len(nbrs); every row of nbrs must be
// strictly increasing in [0, n). This is the O(n + m) ingestion path for
// adjacency that is already in canonical order (for example the batched
// product edge stream), where FromEdges' sort and dedup would be wasted
// work. It panics on malformed input — callers hold the invariant.
func FromCSR(offsets []int64, nbrs []int32) *Graph {
	if len(offsets) == 0 || offsets[0] != 0 {
		panic("graph: FromCSR offsets must start at 0")
	}
	n := len(offsets) - 1
	if offsets[n] != int64(len(nbrs)) {
		panic("graph: FromCSR offsets do not cover the arc array")
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			panic("graph: FromCSR offsets not monotone")
		}
		row := nbrs[offsets[v]:offsets[v+1]]
		for i, w := range row {
			if w < 0 || int(w) >= n || (i > 0 && row[i-1] >= w) {
				panic(fmt.Sprintf("graph: FromCSR row %d not strictly increasing in [0,%d)", v, n))
			}
		}
	}
	return &Graph{n: n, offsets: offsets, nbrs: nbrs}
}

// FromSparse converts a square 0/1 sparse matrix to a Graph. Values must
// be exactly 1.
func FromSparse(m *sparse.Matrix) *Graph {
	if !m.IsSquare() {
		panic("graph: FromSparse needs a square matrix")
	}
	if !m.IsBinary() {
		panic("graph: FromSparse needs a 0/1 matrix")
	}
	n := m.Rows()
	offsets := make([]int64, n+1)
	nbrs := make([]int32, 0, m.NNZ())
	for r := 0; r < n; r++ {
		cols, _ := m.Row(r)
		nbrs = append(nbrs, cols...)
		offsets[r+1] = int64(len(nbrs))
	}
	return &Graph{n: n, offsets: offsets, nbrs: nbrs}
}

// ToSparse converts the adjacency to a 0/1 sparse matrix.
func (g *Graph) ToSparse() *sparse.Matrix {
	rowPtr := append([]int64(nil), g.offsets...)
	colIdx := append([]int32(nil), g.nbrs...)
	val := make([]int64, len(colIdx))
	for i := range val {
		val[i] = 1
	}
	return sparse.NewCSR(g.n, g.n, rowPtr, colIdx, val)
}
