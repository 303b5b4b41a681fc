package gen

import (
	"sort"

	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/triangle"
)

// TriangleLimitedPA implements the paper's §III.D strategy (b): a
// preferential-attachment generator whose output is a connected power-law
// graph in which every edge participates in at most one triangle — the
// Δ_B ≤ 1 hypothesis of Thm. 3.
//
// The generator starts with a single edge. For each new vertex u it picks
// an existing edge (i, j) uniformly at random and a vertex v ∈ {i, j}
// uniformly, and adds (u, v). If edge (i, j) is in no triangle yet, it
// also adds (u, w) for the other endpoint w, closing exactly one triangle
// and marking all three edges as saturated.
func TriangleLimitedPA(n int, seed uint64) *graph.Graph {
	if n < 2 {
		panic("gen: TriangleLimitedPA needs n >= 2")
	}
	g := rng.New(seed)
	type edge struct{ i, j int32 }
	edges := []edge{{0, 1}}
	inTriangle := map[edge]bool{}
	key := func(a, b int32) edge {
		if a > b {
			a, b = b, a
		}
		return edge{a, b}
	}
	for u := int32(2); u < int32(n); u++ {
		e := edges[g.Intn(len(edges))]
		var v, w int32
		if g.Bool() {
			v, w = e.i, e.j
		} else {
			v, w = e.j, e.i
		}
		edges = append(edges, key(u, v))
		if !inTriangle[key(e.i, e.j)] {
			edges = append(edges, key(u, w))
			inTriangle[key(e.i, e.j)] = true
			inTriangle[key(u, v)] = true
			inTriangle[key(u, w)] = true
		}
	}
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: e.i, V: e.j}
	}
	return graph.FromEdges(n, out, true)
}

// ThinToDeltaOne implements §III.D strategy (a): starting from an
// arbitrary undirected graph, delete edges until every remaining edge
// participates in at most one triangle, while preserving connectivity by
// protecting a spanning forest. Deletions prefer the most-loaded edges,
// randomized by seed among ties.
func ThinToDeltaOne(in *graph.Graph, seed uint64) *graph.Graph {
	if !in.IsSymmetric() {
		panic("gen: ThinToDeltaOne requires an undirected graph")
	}
	work := in.WithoutLoops()
	n := work.NumVertices()
	g := rng.New(seed)

	// Spanning forest via BFS: protected edges.
	type ekey struct{ u, v int32 }
	key := func(a, b int32) ekey {
		if a > b {
			a, b = b, a
		}
		return ekey{a, b}
	}
	protected := map[ekey]bool{}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range work.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					protected[key(v, w)] = true
					queue = append(queue, w)
				}
			}
		}
	}

	current := work
	for {
		res := triangle.Count(current)
		// Collect overloaded edges (Δ > 1), heaviest first.
		type cand struct {
			u, v int32
			load int64
		}
		var cands []cand
		a := 0
		current.EachArc(func(r, c int32) bool {
			if v := res.EdgeDelta[a]; r < c && v > 1 {
				cands = append(cands, cand{r, c, v})
			}
			a++
			return true
		})
		if len(cands) == 0 {
			return current
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].load > cands[b].load })
		// Remove one edge per iteration: the heaviest removable edge, or
		// if it is protected, a non-protected edge of one of its
		// triangles (every triangle has at least one non-tree edge).
		target := cands[g.Intn(minInt(len(cands), 3))] // randomized among top-3
		var removeU, removeV int32 = -1, -1
		if !protected[key(target.u, target.v)] {
			removeU, removeV = target.u, target.v
		} else {
			// Find a triangle through (u, v) and remove one of its other
			// edges that is not protected.
			nu := current.Neighbors(target.u)
			for _, w := range nu {
				if w == target.v || !current.HasEdge(target.v, w) {
					continue
				}
				if !protected[key(target.u, w)] {
					removeU, removeV = target.u, w
					break
				}
				if !protected[key(target.v, w)] {
					removeU, removeV = target.v, w
					break
				}
			}
		}
		if removeU < 0 {
			// All three edges protected: impossible for a spanning
			// forest (it would contain a cycle), but guard anyway by
			// removing the target edge.
			removeU, removeV = target.u, target.v
		}
		var keep []graph.Edge
		current.EachEdgeUndirected(func(a, b int32) bool {
			if key(a, b) != key(removeU, removeV) {
				keep = append(keep, graph.Edge{U: a, V: b})
			}
			return true
		})
		current = graph.FromEdges(n, keep, true)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// MaxEdgeTriangles returns the largest number of triangles any edge of
// the undirected graph participates in (0 for triangle-free graphs) — a
// quick checker for the Δ ≤ 1 hypothesis.
func MaxEdgeTriangles(g *graph.Graph) int64 {
	var most int64
	for _, d := range triangle.Count(g).EdgeDelta {
		most = max(most, d)
	}
	return most
}
