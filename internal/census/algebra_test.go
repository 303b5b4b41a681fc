package census

// The paper's census definitions as matrix algebra over the sparse
// reference kernels: the test oracle for the enumerations in directed.go
// and labeled.go.

import (
	"kronvalid/internal/graph"
	"kronvalid/internal/sparse"
)

// dirParts returns A_d, A_r and transposes for the loop-free version of g.
func dirParts(g *graph.Graph) (ad, ar, adt *sparse.Matrix) {
	work := g.WithoutLoops()
	adg := work.DirectedPart()
	arg := work.ReciprocalPart()
	ad = sparse.Adjacency(adg)
	ar = sparse.Adjacency(arg)
	return ad, ar, ad.T()
}

// directedVertexCensusAlgebra computes the 15 per-vertex type counts
// using the paper's Def. 10 matrix formulas (in this library's orientation
// convention). Self loops are ignored.
func directedVertexCensusAlgebra(g *graph.Graph) *VertexCensus {
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

// directedEdgeCensusAlgebra computes the 15 per-edge type counts using
// the Def. 11 formulas: Δ(c,d1,d2) = M_c ∘ (X_{d1} · Y_{d2}) with M_+ = A_d,
// M_o = A_r, X/Y ∈ {A_d, A_d^t, A_r}, each read onto the arcs of g. Self
// loops are ignored.
func directedEdgeCensusAlgebra(g *graph.Graph) *EdgeCensus {
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

// labeledVertexCensusAlgebra computes per-vertex counts of every labeled
// triangle type via the Def. 13 formulas:
//
//	t^(q1,q2,q3) = diag(Π_q1 A Π_q3 A Π_q2 A Π_q1)        (q2 != q3)
//	t^(q1,q2,q2) = ½ diag(Π_q1 A Π_q2 A Π_q2 A Π_q1)
//
// The graph must be labeled and undirected; self loops are ignored.
func labeledVertexCensusAlgebra(g *graph.Graph) map[LabelVertexType][]int64 {
	work := g.WithoutLoops()
	a := sparse.Adjacency(work)
	L := g.NumLabels()
	pi := make([]*sparse.Matrix, L)
	filtered := make([]*sparse.Matrix, L) // A·Π_q (columns filtered)
	for q := 0; q < L; q++ {
		pi[q] = labelFilter(g, int32(q))
		filtered[q] = a.Mul(pi[q])
	}
	out := map[LabelVertexType][]int64{}
	for _, t := range AllLabelVertexTypes(L) {
		// diag(Π_q1 · (A Π_q3) · (A Π_q2) · (A Π_q1)) counts closed
		// walks from a q1 vertex through a q2 and a q3 vertex; {q2, q3}
		// is unordered, so the order of the middle steps does not matter.
		prod := sparse.Diag3(filtered[t.Q3], filtered[t.Q2], filtered[t.Q1])
		counts := make([]int64, len(prod))
		for v := range prod {
			if g.Label(int32(v)) != t.Q1 {
				continue // Π_q1 projection on both sides
			}
			x := prod[v]
			if t.Q2 == t.Q3 {
				if x%2 != 0 {
					panic("census: odd labeled count for equal pair labels")
				}
				x /= 2
			}
			counts[v] = x
		}
		out[t] = counts
	}
	return out
}

// labeledEdgeCensusAlgebra computes per-edge counts of every labeled
// triangle type via Def. 14: Δ^(q1,q2,q3) = (Π_q2 A Π_q1) ∘ (A Π_q3 A), each read
// onto the arcs of g. Self loops are ignored.
func labeledEdgeCensusAlgebra(g *graph.Graph) map[LabelEdgeType][]int64 {
	work := g.WithoutLoops()
	a := sparse.Adjacency(work)
	L := g.NumLabels()
	pi := make([]*sparse.Matrix, L)
	for q := 0; q < L; q++ {
		pi[q] = labelFilter(g, int32(q))
	}
	out := map[LabelEdgeType][]int64{}
	for _, t := range AllLabelEdgeTypes(L) {
		edgePart := pi[t.Q2].Mul(a).Mul(pi[t.Q1])
		wedgePart := a.Mul(pi[t.Q3]).Mul(a)
		out[t] = onArcs(g, edgePart.Hadamard(wedgePart))
	}
	return out
}

// labelFilter returns the paper's projection Π_{A,q} (Def. 12): the
// diagonal 0/1 matrix selecting the vertices of g with label q.
func labelFilter(g *graph.Graph, q int32) *sparse.Matrix {
	d := make([]int64, g.NumVertices())
	for v := range d {
		if g.Label(int32(v)) == q {
			d[v] = 1
		}
	}
	return sparse.DiagMatrix(d)
}
