package census

import (
	"kronvalid/internal/graph"
	"kronvalid/internal/sparse"
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

// dirParts returns A_d, A_r and transposes for the loop-free version of g.
func dirParts(g *graph.Graph) (ad, ar, adt *sparse.Matrix) {
	work := g.WithoutLoops()
	adg := work.DirectedPart()
	arg := work.ReciprocalPart()
	ad = adg.ToSparse()
	ar = arg.ToSparse()
	return ad, ar, ad.T()
}

// DirectedVertexCensus computes the 15 per-vertex type counts using the
// paper's Def. 10 matrix formulas (in this library's orientation
// convention). Self loops are ignored.
func DirectedVertexCensus(g *graph.Graph) *VertexCensus {
	ad, ar, adt := dirParts(g)
	half := func(v []int64) []int64 {
		out := make([]int64, len(v))
		for i, x := range v {
			if x%2 != 0 {
				panic("census: odd count in halved vertex type")
			}
			out[i] = x / 2
		}
		return out
	}
	var c VertexCensus
	c.Counts[SSp] = sparse.Diag3(ad, ad, adt)
	c.Counts[SSo] = half(sparse.Diag3(ad, ar, adt))
	c.Counts[SUp] = sparse.Diag3(ad, ad, ar)
	c.Counts[SUo] = sparse.Diag3(ad, ar, ar)
	c.Counts[SUm] = sparse.Diag3(ad, adt, ar)
	c.Counts[STp] = sparse.Diag3(ad, ad, ad)
	c.Counts[STo] = sparse.Diag3(ad, ar, ad)
	c.Counts[STm] = sparse.Diag3(ad, adt, ad)
	c.Counts[UUp] = sparse.Diag3(ar, ad, ar)
	c.Counts[UUo] = half(sparse.Diag3(ar, ar, ar))
	c.Counts[UTp] = sparse.Diag3(ar, ad, ad)
	c.Counts[UTo] = sparse.Diag3(ar, ar, ad)
	c.Counts[UTm] = sparse.Diag3(ar, adt, ad)
	c.Counts[TTp] = sparse.Diag3(adt, ad, ad)
	c.Counts[TTo] = half(sparse.Diag3(adt, ar, ad))
	return &c
}

// DirectedVertexCensusEnum computes the same counts by enumerating every
// triangle of the undirected version once and classifying it from each of
// its three vertices. It is the combinatorial reference implementation.
func DirectedVertexCensusEnum(g *graph.Graph) *VertexCensus {
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

// DirectedEdgeCensus computes the 15 per-edge type counts using the
// Def. 11 formulas: Δ(c,d1,d2) = M_c ∘ (X_{d1} · Y_{d2}) with M_+ = A_d,
// M_o = A_r, X/Y ∈ {A_d, A_d^t, A_r}, each read onto the arcs of g. Self
// loops are ignored.
func DirectedEdgeCensus(g *graph.Graph) *EdgeCensus {
	ad, ar, adt := dirParts(g)
	x := func(d Dir) *sparse.Matrix {
		switch d {
		case DirForward:
			return ad
		case DirBackward:
			return adt
		default:
			return ar
		}
	}
	// Y_{d2} at (w, j): '+' means w→j (A_d), '-' means j→w (A_d^t),
	// 'o' reciprocal.
	y := x
	var c EdgeCensus
	for _, t := range AllEdgeTypes() {
		central, d1, d2 := edgeTypeParts(t)
		m := ar
		if central {
			m = ad
		}
		c.Delta[t] = onArcs(g, m.Hadamard(x(d1).Mul(y(d2))))
	}
	return &c
}

// onArcs reads m, whose support lies on g's arcs, at every arc of g.
func onArcs(g *graph.Graph, m *sparse.Matrix) []int64 {
	out := make([]int64, g.NumArcs())
	m.Each(func(r, c int, v int64) bool {
		out[g.ArcIndex(int32(r), int32(c))] = v
		return true
	})
	return out
}

// edgeTypeParts decomposes a canonical edge type into (centralDirected,
// d1, d2).
func edgeTypeParts(t EdgeType) (centralDirected bool, d1, d2 Dir) {
	dirAt := func(b byte) Dir {
		switch b {
		case '+':
			return DirForward
		case '-':
			return DirBackward
		default:
			return DirUndirected
		}
	}
	name := edgeTypeNames[t]
	return name[0] == '+', dirAt(name[1]), dirAt(name[2])
}

// DirectedEdgeCensusEnum computes the edge census by triangle enumeration
// and per-arc classification, the combinatorial reference. Self loops are
// ignored.
func DirectedEdgeCensusEnum(g *graph.Graph) *EdgeCensus {
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
