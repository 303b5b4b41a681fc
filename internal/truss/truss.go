// Package truss implements κ-truss decomposition of undirected graphs
// (Def. 7): the trussness of an edge is the largest κ such that the edge
// belongs to a κ-truss, a maximal subgraph in which every edge closes at
// least κ-2 triangles inside the subgraph.
//
// Decompose uses the standard support-peeling algorithm (bucket queue over
// edge supports, analogous to k-core peeling), which runs in
// O(Σ min(deg(u),deg(v))) after triangle counting. NaiveDecompose follows
// the paper's "simple (yet inefficient) algorithm" verbatim — recompute Δ,
// delete weak edges, repeat — and serves as the reference implementation
// in tests.
package truss

import (
	"sort"

	"kronvalid/internal/graph"
	"kronvalid/internal/triangle"
)

// Decomposition is the result of a truss decomposition.
type Decomposition struct {
	us    []int32 // edge endpoints, u < v
	vs    []int32
	truss []int32 // trussness per edge, >= 2
	// MaxK is the largest κ with a non-empty κ-truss (2 when the graph
	// is triangle-free, 0 when it has no edges).
	MaxK int
}

// NumEdges returns the number of undirected non-loop edges considered.
func (d *Decomposition) NumEdges() int { return len(d.us) }

// EdgeTruss returns the trussness of edge (u,v) (either orientation), or
// 0 if the edge does not exist.
func (d *Decomposition) EdgeTruss(u, v int32) int {
	if u > v {
		u, v = v, u
	}
	// Binary search over the sorted (us, vs) pairs.
	lo, hi := 0, len(d.us)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.us[mid] < u || (d.us[mid] == u && d.vs[mid] < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.us) && d.us[lo] == u && d.vs[lo] == v {
		return int(d.truss[lo])
	}
	return 0
}

// KTrussEdges returns the edges (u < v) with trussness >= k, i.e. the
// paper's T^(k) edge set.
func (d *Decomposition) KTrussEdges(k int) []graph.Edge {
	var out []graph.Edge
	for i := range d.us {
		if int(d.truss[i]) >= k {
			out = append(out, graph.Edge{U: d.us[i], V: d.vs[i]})
		}
	}
	return out
}

// TrussSizes returns a map κ -> |T^(κ)| for κ = 3..MaxK.
func (d *Decomposition) TrussSizes() map[int]int {
	out := map[int]int{}
	for k := 3; k <= d.MaxK; k++ {
		out[k] = len(d.KTrussEdges(k))
	}
	return out
}

// Decompose computes the truss decomposition of the undirected version of
// g (self loops ignored) by support peeling.
func Decompose(g *graph.Graph) *Decomposition {
	work := g
	if !work.IsSymmetric() {
		work = work.Undirected()
	}
	work = work.WithoutLoops()

	// Edge ids for u < v, held in an array aligned with the CSR arc
	// order instead of a hash map: arcEdge[arcIndex(u,v)] is the edge id
	// of the undirected edge {u,v}. Lookups on the peeling hot path are
	// then a binary search in a sorted neighbor row plus one array load.
	var us, vs []int32
	arcEdge := make([]int32, work.NumArcs())
	arcIdx := int64(0)
	work.EachArc(func(u, v int32) bool {
		if u < v {
			arcEdge[arcIdx] = int32(len(us))
			us = append(us, u)
			vs = append(vs, v)
		} else {
			arcEdge[arcIdx] = arcEdge[work.ArcIndex(v, u)]
		}
		arcIdx++
		return true
	})
	edgeOf := func(u, v int32) int32 {
		// The callers only probe pairs known to be edges of work.
		return arcEdge[work.ArcIndex(u, v)]
	}
	m := len(us)
	d := &Decomposition{us: us, vs: vs, truss: make([]int32, m)}
	if m == 0 {
		return d
	}

	// Initial supports from the triangle engine.
	support := make([]int32, m)
	for a, delta := range triangle.Count(work).EdgeDelta {
		support[arcEdge[a]] = int32(delta)
	}

	// Bucket queue over supports.
	maxSup := int32(0)
	for _, s := range support {
		if s > maxSup {
			maxSup = s
		}
	}
	// buckets[s] holds edge ids with current support s; pos/bucketOf track
	// positions for O(1) decrement moves.
	buckets := make([][]int32, maxSup+1)
	posIn := make([]int32, m)
	bucketOf := make([]int32, m)
	for e := 0; e < m; e++ {
		s := support[e]
		posIn[e] = int32(len(buckets[s]))
		bucketOf[e] = s
		buckets[s] = append(buckets[s], int32(e))
	}
	moveDown := func(e int32) {
		s := bucketOf[e]
		b := buckets[s]
		last := b[len(b)-1]
		b[posIn[e]] = last
		posIn[last] = posIn[e]
		buckets[s] = b[:len(b)-1]
		s--
		bucketOf[e] = s
		posIn[e] = int32(len(buckets[s]))
		buckets[s] = append(buckets[s], e)
	}

	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	removed := 0
	k := int32(2)
	maxK := 2
	for removed < m {
		// Peel all edges with support <= k-2.
		progress := true
		for progress {
			progress = false
			for s := int32(0); s <= k-2 && s <= maxSup; s++ {
				for len(buckets[s]) > 0 {
					e := buckets[s][len(buckets[s])-1]
					buckets[s] = buckets[s][:len(buckets[s])-1]
					if !alive[e] {
						continue
					}
					alive[e] = false
					removed++
					d.truss[e] = k
					progress = true
					// Decrement supports of edges closing triangles with e.
					u, v := us[e], vs[e]
					nu, nv := work.Neighbors(u), work.Neighbors(v)
					i, j := 0, 0
					for i < len(nu) && j < len(nv) {
						switch {
						case nu[i] < nv[j]:
							i++
						case nv[j] < nu[i]:
							j++
						default:
							w := nu[i]
							e1 := edgeOf(u, w)
							e2 := edgeOf(v, w)
							if alive[e1] && alive[e2] {
								if bucketOf[e1] > 0 {
									moveDown(e1)
								}
								if bucketOf[e2] > 0 {
									moveDown(e2)
								}
							}
							i++
							j++
						}
					}
				}
			}
		}
		if removed < m {
			k++
			if int(k) > maxK {
				maxK = int(k)
			}
		}
	}
	// An edge with truss k belongs to the k-truss; MaxK is the largest
	// trussness observed (>= 3 only if some edge closes a triangle).
	maxK = 2
	for _, t := range d.truss {
		if int(t) > maxK {
			maxK = int(t)
		}
	}
	d.MaxK = maxK
	sortDecomposition(d)
	return d
}

// NaiveDecompose implements the paper's Def. 7 algorithm literally:
// for κ = 3, 4, ...: recompute Δ on the surviving subgraph, remove every
// edge with fewer than κ-2 triangles, repeat until stable; surviving edges
// are T^(κ). Quadratic-ish, used as the test oracle.
func NaiveDecompose(g *graph.Graph) *Decomposition {
	work := g
	if !work.IsSymmetric() {
		work = work.Undirected()
	}
	work = work.WithoutLoops()
	n := work.NumVertices()

	d := &Decomposition{}
	current := work
	type key = int64
	mkKey := func(u, v int32) key { return int64(u)<<32 | int64(v) }
	trussOf := map[key]int32{}
	work.EachEdgeUndirected(func(u, v int32) bool {
		trussOf[mkKey(u, v)] = 2
		return true
	})

	for k := int32(3); current.NumArcs() > 0; k++ {
		for {
			delta := triangle.Count(current).EdgeDelta
			var keep []graph.Edge
			removedAny := false
			current.EachEdgeUndirected(func(u, v int32) bool {
				if delta[current.ArcIndex(u, v)] >= int64(k-2) {
					keep = append(keep, graph.Edge{U: u, V: v})
				} else {
					removedAny = true
				}
				return true
			})
			current = graph.FromEdges(n, keep, true)
			if !removedAny {
				break
			}
		}
		// Remaining edges are in the k-truss.
		current.EachEdgeUndirected(func(u, v int32) bool {
			trussOf[mkKey(u, v)] = k
			return true
		})
	}
	work.EachEdgeUndirected(func(u, v int32) bool {
		d.us = append(d.us, u)
		d.vs = append(d.vs, v)
		d.truss = append(d.truss, trussOf[mkKey(u, v)])
		return true
	})
	if len(d.truss) > 0 {
		d.MaxK = 2
		for _, t := range d.truss {
			if int(t) > d.MaxK {
				d.MaxK = int(t)
			}
		}
	}
	sortDecomposition(d)
	return d
}

func sortDecomposition(d *Decomposition) {
	idx := make([]int, len(d.us))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if d.us[ia] != d.us[ib] {
			return d.us[ia] < d.us[ib]
		}
		return d.vs[ia] < d.vs[ib]
	})
	us := make([]int32, len(idx))
	vs := make([]int32, len(idx))
	tr := make([]int32, len(idx))
	for i, j := range idx {
		us[i], vs[i], tr[i] = d.us[j], d.vs[j], d.truss[j]
	}
	d.us, d.vs, d.truss = us, vs, tr
}
