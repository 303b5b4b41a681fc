package triangle

import (
	"sync/atomic"

	"kronvalid/internal/graph"
	"kronvalid/internal/par"
)

// CountNodeIterator is the unordered node-iterator baseline: for every
// vertex v and every pair of id-ordered neighbors, probe the closing
// edge by binary search. It is the textbook algorithm Chiba–Nishizeki
// ordering improves on — Θ(Σ d_v²) wedge work instead of O(|E|^{3/2}) —
// and exists here as the ablation baseline for the DESIGN.md §4 choice of
// the forward algorithm (compare wedge checks in the benchmarks).
func CountNodeIterator(g *graph.Graph) *Result {
	if !g.IsSymmetric() {
		panic("triangle: CountNodeIterator requires an undirected graph")
	}
	n := g.NumVertices()
	perVertex := make([]int64, n)
	deltaVals := make([]int64, g.NumArcs())
	var wedges, total atomic.Int64
	arcIndex := g.ArcIndex

	par.ForDynamic(int64(n), 32, func(vi int64) {
		v := int32(vi)
		nb := g.Neighbors(v)
		var localWedges, localTri int64
		for i := 0; i < len(nb); i++ {
			if nb[i] <= v {
				continue // count each triangle at its smallest-id vertex; skips the loop
			}
			for j := i + 1; j < len(nb); j++ {
				localWedges++
				if g.HasEdge(nb[i], nb[j]) {
					localTri++
					u, w := nb[i], nb[j]
					atomic.AddInt64(&perVertex[v], 1)
					atomic.AddInt64(&perVertex[u], 1)
					atomic.AddInt64(&perVertex[w], 1)
					atomic.AddInt64(&deltaVals[arcIndex(v, u)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(u, v)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(v, w)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(w, v)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(u, w)], 1)
					atomic.AddInt64(&deltaVals[arcIndex(w, u)], 1)
				}
			}
		}
		wedges.Add(localWedges)
		total.Add(localTri)
	})
	return &Result{
		PerVertex:   perVertex,
		EdgeDelta:   deltaVals,
		Total:       total.Load(),
		WedgeChecks: wedges.Load(),
	}
}
