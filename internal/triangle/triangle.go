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
package triangle

import (
	"sync/atomic"

	"kronvalid/internal/graph"
	"kronvalid/internal/par"
	"kronvalid/internal/sparse"
)

// Result holds the exact triangle statistics of one graph.
type Result struct {
	// PerVertex is t_A: the number of triangles each vertex participates
	// in.
	PerVertex []int64
	// EdgeDelta is Δ_A: a symmetric matrix whose (i,j) entry is the
	// number of triangles containing edge (i,j). The diagonal is zero.
	EdgeDelta *sparse.Matrix
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
	// newForward at the arc leaving the higher-ranked end), then its Δ.
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
	// carries the slot; both receive its count.
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
		}
	}
	delta := deltaMatrix(g, arcVal)
	perVertex := delta.RowSums() // Δ·1 = 2t
	for v := range perVertex {
		perVertex[v] /= 2
	}
	return &Result{
		PerVertex:   perVertex,
		EdgeDelta:   delta,
		Total:       TotalFromEdgeDelta(delta),
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

// deltaMatrix assembles the Δ matrix from per-arc counts aligned with g's
// adjacency order, zeros dropped, row by row.
func deltaMatrix(g *graph.Graph, vals []int64) *sparse.Matrix {
	n := g.NumVertices()
	rowPtr := make([]int64, n+1)
	colIdx, nz := make([]int32, 0, len(vals)), make([]int64, 0, len(vals))
	for u := int32(0); int(u) < n; u++ {
		base := g.ArcOffset(u)
		for k, v := range g.Neighbors(u) {
			if x := vals[base+int64(k)]; x != 0 {
				colIdx, nz = append(colIdx, v), append(nz, x)
			}
		}
		rowPtr[u+1] = int64(len(colIdx))
	}
	return sparse.NewCSR(n, n, rowPtr, colIdx, nz)
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
	s := sparse.SumVec(t)
	if s%3 != 0 {
		panic("triangle: per-vertex sum not divisible by 3")
	}
	return s / 3
}

// TotalFromEdgeDelta recovers τ = (1/6)·Σ_{ij} Δ_ij for a symmetric Δ.
func TotalFromEdgeDelta(d *sparse.Matrix) int64 {
	s := d.Total()
	if s%6 != 0 {
		panic("triangle: edge-delta sum not divisible by 6")
	}
	return s / 6
}

// LocalClusteringCoefficients returns the per-vertex local clustering
// coefficient 2·t_v / (d_v·(d_v-1)) of the undirected loop-free graph,
// one of the paper's motivating downstream statistics.
func LocalClusteringCoefficients(g *graph.Graph) []float64 {
	res := Count(g)
	work := g.WithoutLoops()
	out := make([]float64, g.NumVertices())
	for v := range out {
		d := work.OutDegreeRaw(int32(v))
		if d >= 2 {
			out[v] = 2 * float64(res.PerVertex[v]) / float64(d*(d-1))
		}
	}
	return out
}

// GlobalClusteringCoefficient returns 3τ / #wedges (transitivity).
func GlobalClusteringCoefficient(g *graph.Graph) float64 {
	res := Count(g)
	work := g.WithoutLoops()
	var wedges int64
	for v := 0; v < work.NumVertices(); v++ {
		d := work.OutDegreeRaw(int32(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(res.Total) / float64(wedges)
}
