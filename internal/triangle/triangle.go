// Package triangle computes exact triangle statistics of explicit graphs:
// per-vertex participation t_A (Def. 5), per-edge participation Δ_A
// (Def. 6), and the total count τ(A). It is both the baseline the paper's
// Kronecker formulas are validated against and the engine that computes
// factor statistics during generation.
//
// The core algorithm is the "forward" (compact-forward) algorithm in the
// Chiba–Nishizeki degree ordering: vertices are ranked by non-decreasing
// degree, adjacency is restricted to higher-ranked neighbors, and each
// triangle is discovered exactly once as an ordered triple
// rank(u) < rank(v) < rank(w) via sorted-list intersection. The worst-case
// work is O(|E|^{3/2}); the number of comparisons performed is reported as
// WedgeChecks, the unit the paper uses for its sublinearity claim
// ("7,734,429 wedge checks" for a hundred-trillion-triangle product).
//
// Self loops never participate in triangles (Def. 5 and Def. 6 strip the
// diagonal); the package ignores them.
//
// A per-edge statistic of a graph g, here and in every package that
// consumes one, is a []int64 of length g.NumArcs() indexed by arc
// position (the index g.ArcIndex returns), zeros stored.
package triangle

import (
	"sync/atomic"

	"kronvalid/internal/graph"
	"kronvalid/internal/par"
)

// Result holds the exact triangle statistics of one graph.
type Result struct {
	// PerVertex is t_A: the number of triangles each vertex participates
	// in.
	PerVertex []int64
	// EdgeDelta is Δ_A on the arcs of the input graph: EdgeDelta[a] is
	// the number of triangles containing arc a, 0 on loop arcs.
	EdgeDelta []int64
	// Total is τ(A), the number of distinct triangles.
	Total int64
	// WedgeChecks counts sorted-intersection comparisons performed, the
	// paper's cost unit for ground-truth computation.
	WedgeChecks int64
}

// Count computes exact triangle statistics for an undirected graph
// (self loops are ignored). It panics if g is not symmetric. The merge
// counts each triangle at its three edge slots; Δ, t and τ are read off
// those counts afterwards, so no arc is ever looked up by search.
func Count(g *graph.Graph) *Result {
	if !g.IsSymmetric() {
		panic("triangle: Count requires an undirected (symmetric) graph")
	}
	// arcVal holds, per arc of g, first the slot of its edge (set by
	// newForward at the arc leaving the higher-ranked end), then its Δ:
	// it is EdgeDelta.
	arcVal := make([]int64, g.NumArcs())
	f := newForward(g, arcVal)
	n := len(f.order)
	cnt := make([]atomic.Int32, len(f.adj)) // Δ per slot, at most n-2
	var wedges atomic.Int64
	par.ForDynamic(int64(n), 64, func(r int64) {
		wedges.Add(f.triangles(r, func(uv, uw, vw int64) {
			cnt[uv].Add(1)
			cnt[uw].Add(1)
			cnt[vw].Add(1)
		}))
	})

	// A reverse-arc cursor per vertex pairs each arc u→v (u < v) with
	// v→u: the rows are sorted, so visiting u in increasing order meets
	// the entries of v's row below v in order. One arc of each pair
	// carries the slot; both receive its count, and both ends half of
	// t_v = ½ Σ_w Δ_vw.
	perVertex := make([]int64, n)
	rev := make([]int64, n)
	for v := range rev {
		rev[v] = g.ArcOffset(int32(v))
	}
	for u := int32(0); int(u) < n; u++ {
		base := g.ArcOffset(u)
		for k, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			a, b := base+int64(k), rev[v]
			rev[v]++
			s := arcVal[b]
			if f.rank[u] > f.rank[v] {
				s = arcVal[a]
			}
			c := int64(cnt[s].Load())
			arcVal[a], arcVal[b] = c, c
			perVertex[u] += c
			perVertex[v] += c
		}
	}
	for v := range perVertex {
		perVertex[v] /= 2
	}
	return &Result{
		PerVertex:   perVertex,
		EdgeDelta:   arcVal,
		Total:       TotalFromEdgeDelta(arcVal),
		WedgeChecks: wedges.Load(),
	}
}

// forward holds an undirected graph's forward lists in rank space.
// Vertices are ranked by (degree, id), self loops ignored; row r lists,
// increasing, the ranks above r of its vertex's neighbors. Each entry is
// a slot: one per undirected edge, kept by its lower-ranked end.
type forward struct {
	rank  []int32 // rank[v] of vertex v
	order []int32 // order[r] is the vertex of rank r
	off   []int64 // row r is adj[off[r]:off[r+1]]
	adj   []int32
}

// newForward builds the forward lists of symmetric g. If slotOf is not
// nil, it records at every arc w→u with rank(u) < rank(w) the slot of
// edge {u, w}.
func newForward(g *graph.Graph, slotOf []int64) *forward {
	n := g.NumVertices()
	f := &forward{rank: make([]int32, n), order: make([]int32, n), off: make([]int64, n+1)}
	// A counting sort by degree, stable in id, is the (degree, id) order;
	// rank holds each degree until the sort replaces it.
	start := make([]int32, n+1)
	for v := range f.rank {
		f.rank[v] = int32(g.Degree(int32(v)))
		start[f.rank[v]+1]++
	}
	for d := 1; d <= n; d++ {
		start[d] += start[d-1]
	}
	for v, d := range f.rank {
		f.rank[v], f.order[start[d]] = start[d], int32(v)
		start[d]++
	}

	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if f.rank[v] > f.rank[u] {
				f.off[f.rank[u]+1]++
			}
		}
	}
	for r := 0; r < n; r++ {
		f.off[r+1] += f.off[r]
	}
	// Visiting the higher end of each edge in rank order appends to every
	// row in increasing order: no row needs a sort.
	f.adj = make([]int32, f.off[n])
	next := append([]int64(nil), f.off[:n]...)
	for rw, w := range f.order {
		base := g.ArcOffset(w)
		for k, u := range g.Neighbors(w) {
			if ru := f.rank[u]; ru < int32(rw) {
				f.adj[next[ru]] = int32(rw)
				if slotOf != nil {
					slotOf[base+int64(k)] = next[ru]
				}
				next[ru]++
			}
		}
	}
	return f
}

// triangles intersects row r with the row of each of its entries v and
// calls hit with the slots of edges (r,v), (r,w) and (v,w) for every
// triangle {r, v, w} found, so each triangle is met once, at its
// lowest-ranked vertex. It returns the comparisons made: the wedge checks.
func (f *forward) triangles(r int64, hit func(uv, uw, vw int64)) int64 {
	lo := f.off[r]
	fu := f.adj[lo:f.off[r+1]]
	var checks int64
	for a, rv := range fu {
		vlo := f.off[rv]
		fv := f.adj[vlo:f.off[rv+1]]
		i, j := 0, 0
		for i < len(fu) && j < len(fv) {
			checks++
			switch x, y := fu[i], fv[j]; {
			case x < y:
				i++
			case y < x:
				j++
			default:
				hit(lo+int64(a), lo+int64(i), vlo+int64(j))
				i++
				j++
			}
		}
	}
	return checks
}

// EachTriangle enumerates every triangle of the undirected version of g
// exactly once, calling fn(u, v, w) with three distinct vertices (order
// unspecified but deterministic). Self loops are ignored. Enumeration is
// serial over Count's forward lists; it is the reference used by the
// census packages.
func EachTriangle(g *graph.Graph, fn func(u, v, w int32)) {
	if !g.IsSymmetric() {
		g = g.Undirected()
	}
	f := newForward(g, nil)
	for r, u := range f.order {
		f.triangles(int64(r), func(uv, uw, _ int64) {
			fn(u, f.order[f.adj[uv]], f.order[f.adj[uw]])
		})
	}
}

// TotalFromPerVertex recovers τ = (1/3)·Σ t_v, validating divisibility.
func TotalFromPerVertex(t []int64) int64 {
	s := sum(t)
	if s%3 != 0 {
		panic("triangle: per-vertex sum not divisible by 3")
	}
	return s / 3
}

// TotalFromEdgeDelta recovers τ = (1/6)·Σ_{ij} Δ_ij from Δ on the arcs
// of an undirected graph.
func TotalFromEdgeDelta(d []int64) int64 {
	s := sum(d)
	if s%6 != 0 {
		panic("triangle: edge-delta sum not divisible by 6")
	}
	return s / 6
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// LocalClusteringCoefficients returns the per-vertex local clustering
// coefficient 2·t_v / (d_v·(d_v-1)) of the undirected graph, self loops
// ignored, one of the paper's motivating downstream statistics.
func LocalClusteringCoefficients(g *graph.Graph) []float64 {
	res := Count(g)
	out := make([]float64, g.NumVertices())
	for v := range out {
		d := g.Degree(int32(v))
		if d >= 2 {
			out[v] = 2 * float64(res.PerVertex[v]) / float64(d*(d-1))
		}
	}
	return out
}

// GlobalClusteringCoefficient returns 3τ / #wedges (transitivity).
func GlobalClusteringCoefficient(g *graph.Graph) float64 {
	res := Count(g)
	var wedges int64
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(int32(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(res.Total) / float64(wedges)
}
