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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is an immutable compressed sparse adjacency structure. Build one
// with FromEdges, FromCSR, or a generator in package gen.
type Graph struct {
	n       int
	offsets []int64 // len n+1
	nbrs    []int32 // sorted within each vertex's slice, no duplicates
	labels  []int32 // nil if unlabeled; else len n, values in [0, numLabels)
	nLabels int

	// sym memoizes IsSymmetric: symUnknown until the first call, then the
	// verdict. The adjacency never changes, so it cannot go stale; every
	// constructor and transform builds a new Graph, which starts unknown
	// and answers for its own arcs. loops and derived are memos of the
	// same kind.
	sym atomic.Int32

	// loops memoizes NumLoops plus one: 0 until the first call.
	loops atomic.Int64

	// derived is the slot Derived fills once, behind derivedOnce.
	derivedOnce sync.Once
	derived     any
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

// NumLoops returns the number of self loops. The vertices are scanned on
// the first call only (concurrent first calls may each scan; they store
// the same count).
func (g *Graph) NumLoops() int64 {
	if c := g.loops.Load(); c > 0 {
		return c - 1
	}
	var loops int64
	for v := 0; v < g.n; v++ {
		if g.LoopAt(int32(v)) {
			loops++
		}
	}
	g.loops.Store(loops + 1)
	return loops
}

// Derived returns the value in g's one memo slot, calling compute to fill
// it on the first call; concurrent first callers wait for that one call.
// The slot lives exactly as long as g, and a clone or transform starts
// with an empty one. It has one owner, package kron's factor statistics,
// so compute always builds the same type, and the value is read-only to
// every caller. Derived is a function, not a method, so the slot stays
// out of the exported Graph type's method set.
func Derived(g *Graph, compute func() any) any {
	g.derivedOnce.Do(func() { g.derived = compute() })
	return g.derived
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
// loop. On a loop-free graph that is the raw out-degree, with no search.
func (g *Graph) Degree(v int32) int64 {
	d := g.OutDegreeRaw(v)
	if g.NumLoops() > 0 && g.LoopAt(v) {
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
func (g *Graph) HasAnyLoop() bool { return g.NumLoops() > 0 }

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
// undirected graph. Arcs are placed by a counting sort on their source;
// each row is then sorted and deduplicated on its own.
func FromEdges(n int, edges []Edge, symmetrize bool) *Graph {
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
		}
		offsets[e.U+1]++
		if symmetrize && e.U != e.V {
			offsets[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	nbrs := make([]int32, offsets[n])
	next := append([]int64(nil), offsets[:n]...)
	for _, e := range edges {
		nbrs[next[e.U]] = e.V
		next[e.U]++
		if symmetrize && e.U != e.V {
			nbrs[next[e.V]] = e.U
			next[e.V]++
		}
	}
	// Each row, sorted and without repeats, moves down to the write
	// position w, which never passes its start.
	w := int64(0)
	for v := 0; v < n; v++ {
		row := nbrs[offsets[v]:offsets[v+1]]
		slices.Sort(row)
		offsets[v] = w
		w += int64(copy(nbrs[w:], slices.Compact(row)))
	}
	offsets[n] = w
	g := &Graph{n: n, offsets: offsets, nbrs: nbrs[:w:w]}
	if symmetrize {
		g.sym.Store(symYes)
	}
	return g
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

// FromSymmetricCSR is FromCSR for arrays the caller knows to be
// symmetric, every arc (u,v) matched by (v,u): it records that verdict,
// as FromEdges(…, true) does, instead of leaving IsSymmetric a search
// per arc. The rows are checked as FromCSR checks them; the symmetry is
// not.
func FromSymmetricCSR(offsets []int64, nbrs []int32) *Graph {
	g := FromCSR(offsets, nbrs)
	g.sym.Store(symYes)
	return g
}
