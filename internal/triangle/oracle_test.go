package triangle

import (
	"sort"
	"sync/atomic"

	"kronvalid/internal/graph"
	"kronvalid/internal/par"
	"kronvalid/internal/sparse"
)

// oracleResult is the retained engine's result: Result with Δ as a
// matrix.
type oracleResult struct {
	PerVertex          []int64
	EdgeDelta          *sparse.Matrix
	Total, WedgeChecks int64
}

// countOracle is the pre-slot forward engine, retained as the oracle of
// TestCountMatchesOracle: vertex-id forward lists sorted by rank, nine
// atomic increments and six arc searches per triangle, Δ assembled from
// triplets.
func countOracle(g *graph.Graph) *oracleResult {
	if !g.IsSymmetric() {
		panic("triangle: Count requires an undirected (symmetric) graph")
	}
	n := g.NumVertices()
	work := g.WithoutLoops()

	rank := oracleDegreeRank(work)

	// Forward adjacency: fwd[u] lists neighbors v with rank(v) > rank(u),
	// sorted by rank. Stored flat.
	fwdOff := make([]int64, n+1)
	for u := 0; u < n; u++ {
		cnt := 0
		for _, v := range work.Neighbors(int32(u)) {
			if rank[v] > rank[u] {
				cnt++
			}
		}
		fwdOff[u+1] = fwdOff[u] + int64(cnt)
	}
	fwd := make([]int32, fwdOff[n])
	par.ForBlocked(int64(n), func(lo, hi int64) {
		for u := lo; u < hi; u++ {
			pos := fwdOff[u]
			for _, v := range work.Neighbors(int32(u)) {
				if rank[v] > rank[u] {
					fwd[pos] = v
					pos++
				}
			}
			seg := fwd[fwdOff[u]:pos]
			sort.Slice(seg, func(a, b int) bool { return rank[seg[a]] < rank[seg[b]] })
		}
	})

	perVertex := make([]int64, n)
	deltaVals := make([]int64, work.NumArcs()) // aligned to work's arc order
	var wedges, total atomic.Int64

	arcIndex := oracleArcIndexer(work)

	par.ForDynamic(int64(n), 64, func(ui int64) {
		u := int32(ui)
		fu := fwd[fwdOff[u]:fwdOff[u+1]]
		var localWedges, localTri int64
		for _, v := range fu {
			fv := fwd[fwdOff[v]:fwdOff[v+1]]
			// Intersect fu and fv by rank order.
			i, j := 0, 0
			for i < len(fu) && j < len(fv) {
				localWedges++
				ru, rv := rank[fu[i]], rank[fv[j]]
				switch {
				case ru < rv:
					i++
				case rv < ru:
					j++
				default:
					w := fu[i]
					localTri++
					atomic.AddInt64(&perVertex[u], 1)
					atomic.AddInt64(&perVertex[v], 1)
					atomic.AddInt64(&perVertex[w], 1)
					atomic.AddInt64(&deltaVals[arcIndex(u, v)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(v, u)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(u, w)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(w, u)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(v, w)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(w, v)], 1)
					i++
					j++
				}
			}
		}
		wedges.Add(localWedges)
		total.Add(localTri)
	})

	return &oracleResult{
		PerVertex:   perVertex,
		EdgeDelta:   oracleDeltaMatrix(work, deltaVals),
		Total:       total.Load(),
		WedgeChecks: wedges.Load(),
	}
}

// oracleDegreeRank returns a permutation rank where rank[v] orders
// vertices by (degree, id) increasing, by comparison sort.
func oracleDegreeRank(g *graph.Graph) []int32 {
	n := g.NumVertices()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.OutDegreeRaw(order[a]), g.OutDegreeRaw(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	rank := make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	return rank
}

// oracleArcIndexer returns a function mapping arc (u,v) to its position in
// g's flattened adjacency, by binary search within u's neighbor slice.
func oracleArcIndexer(g *graph.Graph) func(u, v int32) int64 {
	return func(u, v int32) int64 {
		nb := g.Neighbors(u)
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		if k == len(nb) || nb[k] != v {
			panic("triangle: arc not found")
		}
		return g.ArcOffset(u) + int64(k)
	}
}

// oracleDeltaMatrix assembles the Δ matrix from per-arc counts aligned
// with g's adjacency order, through triplets.
func oracleDeltaMatrix(g *graph.Graph, vals []int64) *sparse.Matrix {
	n := g.NumVertices()
	var ts []sparse.Triplet
	idx := 0
	g.EachArc(func(u, v int32) bool {
		if vals[idx] != 0 {
			ts = append(ts, sparse.Triplet{Row: int(u), Col: int(v), Val: vals[idx]})
		}
		idx++
		return true
	})
	return sparse.FromTriplets(n, n, ts)
}
