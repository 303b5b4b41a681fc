package census

import (
	"kronvalid/internal/graph"
	"kronvalid/internal/triangle"
)

// VertexCensus holds per-vertex counts of every directed triangle type.
type VertexCensus struct {
	// Counts[t][v] is the number of type-t triangles centered at v.
	Counts [NumVertexTypes][]int64
}

// At returns the count of type t at vertex v.
func (c *VertexCensus) At(t VertexType, v int32) int64 { return c.Counts[t][v] }

// TotalPerVertex returns the sum over all types at each vertex, which
// equals the undirected triangle participation t_{A_u}.
func (c *VertexCensus) TotalPerVertex() []int64 {
	out := make([]int64, len(c.Counts[0]))
	for _, vec := range c.Counts {
		for v, x := range vec {
			out[v] += x
		}
	}
	return out
}

// EdgeCensus holds per-edge counts of every directed triangle type.
type EdgeCensus struct {
	// Delta[t] is the count of type t on the arcs of the graph the census
	// was computed for, 0 on loop arcs: for central-'+' types the support
	// lies in A_d; for central-'o' types in A_r, with mirror readings
	// accounted at the opposite arc.
	Delta [NumEdgeTypes][]int64
}

// DirectedVertexCensus computes the 15 per-vertex type counts (Def. 10)
// by enumerating every triangle of the undirected version once and
// classifying it from each of its three vertices. Self loops are ignored.
func DirectedVertexCensus(g *graph.Graph) *VertexCensus {
	work := g.WithoutLoops()
	n := work.NumVertices()
	var c VertexCensus
	for t := range c.Counts {
		c.Counts[t] = make([]int64, n)
	}
	role := func(v, x int32) Role {
		fwd, bwd := work.HasEdge(v, x), work.HasEdge(x, v)
		switch {
		case fwd && bwd:
			return RoleUndirected
		case fwd:
			return RoleSource
		default:
			return RoleTarget
		}
	}
	dirOf := func(x, y int32) Dir {
		fwd, bwd := work.HasEdge(x, y), work.HasEdge(y, x)
		switch {
		case fwd && bwd:
			return DirUndirected
		case fwd:
			return DirForward
		default:
			return DirBackward
		}
	}
	triangle.EachTriangle(work, func(u, v, w int32) {
		for _, p := range [3][3]int32{{u, v, w}, {v, u, w}, {w, u, v}} {
			center, x, y := p[0], p[1], p[2]
			t := CanonicalVertexType(role(center, x), role(center, y), dirOf(x, y))
			c.Counts[t][center]++
		}
	})
	return &c
}

// DirectedEdgeCensus computes the 15 per-edge type counts (Def. 11) by
// enumerating every triangle once and classifying it from each of its
// arcs. Self loops are ignored.
func DirectedEdgeCensus(g *graph.Graph) *EdgeCensus {
	var c EdgeCensus
	for t := range c.Delta {
		c.Delta[t] = make([]int64, g.NumArcs())
	}
	dirOf := func(x, y int32) Dir {
		fwd, bwd := g.HasEdge(x, y), g.HasEdge(y, x)
		switch {
		case fwd && bwd:
			return DirUndirected
		case fwd:
			return DirForward
		default:
			return DirBackward
		}
	}
	record := func(i, j, w int32) {
		// Reading of the triangle {i, j, w} from arc (i, j).
		central := dirOf(i, j)
		if central == DirBackward {
			return // arc (i,j) does not exist; handled from (j,i)
		}
		d1 := dirOf(i, w)
		d2 := dirOf(w, j)
		t, here := CanonicalEdgeReading(central == DirForward, d1, d2)
		if here {
			c.Delta[t][g.ArcIndex(i, j)]++
		}
	}
	triangle.EachTriangle(g, func(u, v, w int32) {
		// Each unordered edge of the triangle, read from both arcs.
		record(u, v, w)
		record(v, u, w)
		record(u, w, v)
		record(w, u, v)
		record(v, w, u)
		record(w, v, u)
	})
	return &c
}
