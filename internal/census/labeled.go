package census

import (
	"fmt"

	"kronvalid/internal/graph"
	"kronvalid/internal/triangle"
)

// LabelVertexType identifies a labeled triangle from a vertex's
// perspective (Fig. 6): the central vertex's label Q1 and the unordered
// pair of labels {Q2, Q3} (stored with Q2 <= Q3) of the other two
// vertices. For |L| labels there are |L| * C(|L|+1, 2) such types.
type LabelVertexType struct {
	Q1, Q2, Q3 int32
}

func (t LabelVertexType) String() string {
	return fmt.Sprintf("(%d|%d,%d)", t.Q1, t.Q2, t.Q3)
}

// NewLabelVertexType canonicalizes the unordered pair.
func NewLabelVertexType(q1, q2, q3 int32) LabelVertexType {
	if q2 > q3 {
		q2, q3 = q3, q2
	}
	return LabelVertexType{q1, q2, q3}
}

// LabelEdgeType identifies a labeled triangle from an edge's perspective:
// the arc (i, j) has row-end label Q2 = f(i), column-end label Q1 = f(j),
// and the opposite vertex has label Q3 (Def. 14: Δ^(q1,q2,q3) =
// (Π_q2 A Π_q1) ∘ (A Π_q3 A)). For an edge with given endpoint labels
// there are |L| types, one per Q3.
type LabelEdgeType struct {
	Q1, Q2, Q3 int32
}

func (t LabelEdgeType) String() string {
	return fmt.Sprintf("(%d<-%d|%d)", t.Q1, t.Q2, t.Q3)
}

// AllLabelVertexTypes enumerates the canonical vertex types for a label
// set of size L.
func AllLabelVertexTypes(L int) []LabelVertexType {
	var out []LabelVertexType
	for q1 := int32(0); q1 < int32(L); q1++ {
		for q2 := int32(0); q2 < int32(L); q2++ {
			for q3 := q2; q3 < int32(L); q3++ {
				out = append(out, LabelVertexType{q1, q2, q3})
			}
		}
	}
	return out
}

// AllLabelEdgeTypes enumerates the edge types for a label set of size L.
func AllLabelEdgeTypes(L int) []LabelEdgeType {
	var out []LabelEdgeType
	for q1 := int32(0); q1 < int32(L); q1++ {
		for q2 := int32(0); q2 < int32(L); q2++ {
			for q3 := int32(0); q3 < int32(L); q3++ {
				out = append(out, LabelEdgeType{q1, q2, q3})
			}
		}
	}
	return out
}

// LabeledVertexCensus computes per-vertex counts of every labeled
// triangle type (Def. 13) by enumerating every triangle once and
// classifying it from each of its three vertices. The graph must be
// labeled and undirected; self loops are ignored.
func LabeledVertexCensus(g *graph.Graph) map[LabelVertexType][]int64 {
	if !g.IsLabeled() {
		panic("census: LabeledVertexCensus requires a labeled graph")
	}
	if !g.IsSymmetric() {
		panic("census: LabeledVertexCensus requires an undirected graph")
	}
	work := g.WithoutLoops()
	n := work.NumVertices()
	out := map[LabelVertexType][]int64{}
	for _, t := range AllLabelVertexTypes(g.NumLabels()) {
		out[t] = make([]int64, n)
	}
	triangle.EachTriangle(work, func(u, v, w int32) {
		for _, p := range [3][3]int32{{u, v, w}, {v, u, w}, {w, u, v}} {
			center, x, y := p[0], p[1], p[2]
			t := NewLabelVertexType(g.Label(center), g.Label(x), g.Label(y))
			out[t][center]++
		}
	})
	return out
}

// LabeledEdgeCensus computes per-edge counts of every labeled triangle
// type (Def. 14) by enumerating every triangle once and classifying it
// from each of its arcs, each count on the arcs of g. The graph must be
// labeled and undirected; self loops are ignored.
func LabeledEdgeCensus(g *graph.Graph) map[LabelEdgeType][]int64 {
	if !g.IsLabeled() {
		panic("census: LabeledEdgeCensus requires a labeled graph")
	}
	if !g.IsSymmetric() {
		panic("census: LabeledEdgeCensus requires an undirected graph")
	}
	out := map[LabelEdgeType][]int64{}
	for _, t := range AllLabelEdgeTypes(g.NumLabels()) {
		out[t] = make([]int64, g.NumArcs())
	}
	record := func(i, j, w int32) {
		// Arc (i,j): Q2 = f(i) (row end), Q1 = f(j) (column end),
		// Q3 = f(w).
		t := LabelEdgeType{Q1: g.Label(j), Q2: g.Label(i), Q3: g.Label(w)}
		out[t][g.ArcIndex(i, j)]++
	}
	triangle.EachTriangle(g, func(u, v, w int32) {
		record(u, v, w)
		record(v, u, w)
		record(u, w, v)
		record(w, u, v)
		record(v, w, u)
		record(w, v, u)
	})
	return out
}
