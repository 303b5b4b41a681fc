package kron

import (
	"errors"
	"sync"

	"kronvalid/internal/census"
	"kronvalid/internal/graph"
	"kronvalid/internal/triangle"
	"kronvalid/internal/truss"
)

// Scope says where a column's values live.
type Scope int

const (
	VertexScope Scope = iota // one value per product vertex
	ArcScope                 // one value per product arc, in EachArc order
)

// Column is one statistic of a product C in closed form. verify.Full
// compares every column with its direct count, kronstats prints the
// vertex columns, and paperrepro checks the paper's numbers on them.
type Column struct {
	Name    string // the statistic; the types of one census share it
	Type    string // the census type, "" for the other statistics
	Theorem string
	Scope   Scope
	// Skip is the hypothesis that C fails, "" when the closed form holds.
	// A skipped statistic is one column with no Eval and no Direct.
	Skip string
	// Eval is the closed form: a *KronVecSum or, for ArcScope, a
	// *KronMatSum.
	Eval interface {
		Vector() []int64
		Total() (int64, error)
	}
	// Direct counts the statistic on an explicit graph without the
	// Kronecker structure: on Product.Materialize's graph it is
	// Eval.Vector().
	Direct func(c *graph.Graph) []int64
}

// Columns returns every statistic of p the paper gives a closed form for:
// degree, t, Δ, wedges, trussness, then the directed and the labeled
// census, vertex types before edge types.
func Columns(p *Product) []Column {
	var cols []Column
	add := func(name, theorem, typ string, scope Scope, col Column, err error) {
		if err != nil {
			col = Column{Skip: err.Error()}
		}
		col.Name, col.Theorem, col.Type, col.Scope = name, theorem, typ, scope
		cols = append(cols, col)
	}
	tri := onGraph(2, triangle.Count)
	add("degree formula", "§III.A", "", VertexScope, Column{Eval: degreeSum(p), Direct: (*graph.Graph).Degrees}, nil)
	tc, err := VertexParticipation(p)
	add("vertex participation", "§III.B", "", VertexScope, Column{Eval: tc, Direct: func(c *graph.Graph) []int64 { return tri(c).PerVertex }}, err)
	dc, err := EdgeParticipation(p)
	add("edge participation", "§III.C", "", ArcScope, Column{Eval: dc, Direct: func(c *graph.Graph) []int64 { return tri(c).EdgeDelta }}, err)
	wc, err := wedgeSum(p)
	add("wedge count", "§III.A", "", VertexScope, Column{Eval: wc, Direct: directWedges}, err)
	tr, err := Trussness(p)
	add("truss decomposition (Thm. 3)", "Thm. 3", "", ArcScope, Column{Eval: tr, Direct: trussOnArcs}, err)

	const dvName, deName = "directed vertex census (Thm. 4)", "directed edge census (Thm. 5)"
	if ds, err := DirectedCensus(p); err != nil {
		add(dvName, "Thm. 4", "", VertexScope, Column{}, err)
		add(deName, "Thm. 5", "", ArcScope, Column{}, err)
	} else {
		vts, ets := census.AllVertexTypes(), census.AllEdgeTypes()
		dv, de := onGraph(len(vts), census.DirectedVertexCensus), onGraph(len(ets), census.DirectedEdgeCensus)
		for _, ty := range vts {
			add(dvName, "Thm. 4", ty.String(), VertexScope, Column{Eval: ds.Vertex[ty], Direct: func(c *graph.Graph) []int64 { return dv(c).Counts[ty] }}, nil)
		}
		for _, ty := range ets {
			add(deName, "Thm. 5", ty.String(), ArcScope, Column{Eval: ds.Edge[ty], Direct: func(c *graph.Graph) []int64 { return de(c).Delta[ty] }}, nil)
		}
	}
	const lvName, leName = "labeled vertex census (Thm. 6)", "labeled edge census (Thm. 7)"
	if ls, err := LabeledCensus(p); err != nil {
		add(lvName, "Thm. 6", "", VertexScope, Column{}, err)
		add(leName, "Thm. 7", "", ArcScope, Column{}, err)
	} else {
		labels := p.Factors[0].NumLabels()
		vts, ets := census.AllLabelVertexTypes(labels), census.AllLabelEdgeTypes(labels)
		lv, le := onGraph(len(vts), census.LabeledVertexCensus), onGraph(len(ets), census.LabeledEdgeCensus)
		for _, ty := range vts {
			add(lvName, "Thm. 6", ty.String(), VertexScope, Column{Eval: ls.Vertex[ty], Direct: func(c *graph.Graph) []int64 { return lv(c)[ty] }}, nil)
		}
		for _, ty := range ets {
			add(leName, "Thm. 7", ty.String(), ArcScope, Column{Eval: ls.Edge[ty], Direct: func(c *graph.Graph) []int64 { return le(c)[ty] }}, nil)
		}
	}
	return cols
}

// onGraph memoizes count on the last graph it was called with, so the
// uses columns that share it (a census's types; t and Δ) share one count
// of an explicit graph. The memo drops the count after its uses-th call
// on that graph, when every column has read it: verify.Full, comparing
// the columns in turn, holds one census of C at a time. A call after
// that counts again.
func onGraph[T any](uses int, count func(*graph.Graph) T) func(*graph.Graph) T {
	var mu sync.Mutex
	var last *graph.Graph
	var v T
	left := 0
	return func(c *graph.Graph) T {
		mu.Lock()
		defer mu.Unlock()
		if c != last {
			last, v, left = c, count(c), uses
		}
		out := v
		if left--; left == 0 {
			var zero T
			last, v = nil, zero
		}
		return out
	}
}

// degreeSum is d_C = ⊗x_i − ⊗s_i (§III.A); for directed factors, the
// out-degree.
func degreeSum(p *Product) *KronVecSum {
	x, _, _, s, loops := degreeTerms(p)
	sum := &KronVecSum{Den: 1, Terms: []Term{x}}
	if loops {
		s.Coef = -1
		sum.Terms = append(sum.Terms, s)
	}
	return sum
}

// wedgeSum is the number of wedges at each vertex of C, d_C(d_C − 1)/2.
// With d_C = Πx − Πs and s² = s,
//
//	w_C = ½[ ⊗x² − ⊗x − 2·⊗(x∘s) + 2·⊗s ].
func wedgeSum(p *Product) (*KronVecSum, error) {
	if !p.IsSymmetric() {
		return nil, errors.New("kron: formula requires undirected factors")
	}
	x, x2, xs, s, loops := degreeTerms(p)
	x.Coef = -1
	sum := &KronVecSum{Den: 2, Terms: []Term{x2, x}}
	if loops {
		xs.Coef, s.Coef = -2, 2
		sum.Terms = append(sum.Terms, xs, s)
	}
	return sum, nil
}

// degreeTerms returns ⊗x, ⊗x², ⊗(x∘s) and ⊗s as terms of coefficient 1,
// x the factors' raw row sums (loop included) and s their loop
// indicators, and whether every factor has a loop: otherwise the last two
// are 0 and must not be used (a loop-free factor's x∘s and s are nil).
func degreeTerms(p *Product) (x, x2, xs, s Term, loops bool) {
	x, x2, xs, s, loops = Term{Coef: 1}, Term{Coef: 1}, Term{Coef: 1}, Term{Coef: 1}, true
	for _, f := range p.Factors {
		n := f.NumVertices()
		fx, fx2 := rawRowSums(f), make([]int64, n)
		for v := range fx {
			fx2[v] = fx[v] * fx[v]
		}
		var fxs, fs []int64 // nil for a loop-free factor
		if f.HasAnyLoop() {
			fxs, fs = make([]int64, n), make([]int64, n)
			for v := range fx {
				if f.LoopAt(int32(v)) {
					fs[v], fxs[v] = 1, fx[v]
				}
			}
		}
		x.Vecs, x2.Vecs, xs.Vecs, s.Vecs = append(x.Vecs, fx), append(x2.Vecs, fx2), append(xs.Vecs, fxs), append(s.Vecs, fs)
		loops = loops && fs != nil
	}
	return x, x2, xs, s, loops
}

func directWedges(c *graph.Graph) []int64 {
	w := c.Degrees()
	for v, d := range w {
		w[v] = d * (d - 1) / 2
	}
	return w
}

// Trussness returns the trussness of every edge of C = A ⊗ B under
// Thm. 3's hypotheses: both factors undirected and loop-free, and every
// edge of B in at most one triangle (Δ_B ≤ 1). Then
//
//	(p,q) ∈ T^(κ)_C  ⇔  (i,j) ∈ T^(κ)_A and (k,l) ∈ T^(3)_B,
//
// and an edge whose B side closes no triangle closes none in C, so with
// τ_A A's trussness on its arcs
//
//	τ_C = 2·(1 ⊗ 1) + (τ_A − 2) ⊗ Δ_B,
//
// exact because Δ_B ∈ {0, 1}. At is 0 off the arcs of C.
func Trussness(p *Product) (*KronMatSum, error) {
	a, b, err := p.pair("Thm. 3")
	if err != nil {
		return nil, err
	}
	if !a.IsSymmetric() || !b.IsSymmetric() {
		return nil, errors.New("kron: Thm. 3 requires undirected factors")
	}
	if a.HasAnyLoop() || b.HasAnyLoop() {
		return nil, errors.New("kron: Thm. 3 requires loop-free factors")
	}
	deltaB := ComputeFactorStats(b).Delta
	for _, d := range deltaB {
		if d > 1 {
			return nil, errors.New("kron: Thm. 3 requires Δ_B ≤ 1 (every edge of B in at most one triangle)")
		}
	}
	tauA, onesA, onesB := trussOnArcs(a), make([]int64, a.NumArcs()), make([]int64, b.NumArcs())
	for i := range tauA {
		tauA[i], onesA[i] = tauA[i]-2, 1
	}
	for i := range onesB {
		onesB[i] = 1
	}
	return &KronMatSum{p: p, Terms: []Term{
		{Coef: 2, Vecs: [][]int64{onesA, onesB}},
		{Coef: 1, Vecs: [][]int64{tauA, deltaB}},
	}}, nil
}

// trussOnArcs returns the trussness (package truss) of g's edges on its
// arcs, 0 on loop arcs.
func trussOnArcs(g *graph.Graph) []int64 {
	d := truss.Decompose(g)
	out := make([]int64, 0, g.NumArcs())
	g.EachArc(func(u, v int32) bool {
		out = append(out, int64(d.EdgeTruss(u, v)))
		return true
	})
	return out
}
