package verify

import (
	"slices"
	"strings"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/kron"
	"kronvalid/internal/rng"
)

func randomUndirected(g *rng.Xoshiro256, n int, avgDeg float64, loopProb float64) *graph.Graph {
	var edges []graph.Edge
	target := int(avgDeg * float64(n) / 2)
	for i := 0; i < target; i++ {
		u, v := int32(g.Intn(n)), int32(g.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	gr := graph.FromEdges(n, edges, true)
	if loopProb > 0 {
		all := gr.Arcs()
		for v := 0; v < n; v++ {
			if g.Float64() < loopProb {
				all = append(all, graph.Edge{U: int32(v), V: int32(v)})
			}
		}
		gr = graph.FromEdges(n, all, false)
	}
	return gr
}

func TestFullReportAllPass(t *testing.T) {
	g := rng.New(81)
	a := randomUndirected(g, 10, 4, 0)
	b := gen.TriangleLimitedPA(9, 3)
	p := kron.MustProduct(a, b)
	r, err := Full(p, 10000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllPassed() {
		t.Fatalf("failures: %v", r.Failures())
	}
	// Truss must have actually run (hypotheses hold).
	found := false
	for _, c := range r.Checks {
		if strings.Contains(c.Name, "Thm. 3") && c.Ran {
			found = true
		}
	}
	if !found {
		t.Error("Thm. 3 check did not run despite valid hypotheses")
	}
}

func TestFullWithLoopsAndLabels(t *testing.T) {
	g := rng.New(82)
	base := randomUndirected(g, 9, 4, 0)
	labels := make([]int32, base.NumVertices())
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	a := base.WithLabels(labels, 3)
	b := randomUndirected(g, 8, 3, 0.5)
	p := kron.MustProduct(a, b)
	r, err := Full(p, 10000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllPassed() {
		t.Fatalf("failures: %v", r.Failures())
	}
	ranLabeled := false
	for _, c := range r.Checks {
		if strings.Contains(c.Name, "Thm. 6") && c.Ran && c.Passed {
			ranLabeled = true
		}
	}
	if !ranLabeled {
		t.Error("labeled census check did not run")
	}
}

func TestFullDirectedProduct(t *testing.T) {
	a := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 1, V: 0}}, false)
	b := gen.Clique(4)
	p := kron.MustProduct(a, b)
	r, err := Full(p, 10000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllPassed() {
		t.Fatalf("failures: %v", r.Failures())
	}
}

func TestFullTooLarge(t *testing.T) {
	a := gen.Clique(100)
	p := kron.MustProduct(a, a)
	if _, err := Full(p, 10, 10); err == nil {
		t.Fatal("expected materialization refusal")
	}
}

func TestSampledLargeProduct(t *testing.T) {
	// A product far too large to materialize: 2^40-ish arcs.
	a := gen.WebGraph(1<<12, 3, 0.7, 4)
	p := kron.MustProduct(a, a.WithAllLoops())
	r, err := Sampled(p, 30, 30, 1<<20, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllPassed() {
		t.Fatalf("failures: %v", r.Failures())
	}
}

func TestSampledRejectsDirected(t *testing.T) {
	a := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, false)
	p := kron.MustProduct(a, gen.Clique(3))
	if _, err := Sampled(p, 5, 5, 100, 1); err == nil {
		t.Fatal("expected error for directed product")
	}
}

func TestStreamCountMatchesFormula(t *testing.T) {
	// The structure-oblivious counter applied to the product's own edge
	// stream must reproduce the formula totals.
	a := gen.WebGraph(60, 3, 0.7, 5)
	b := gen.HubCycle(4)
	p := kron.MustProduct(a, b)
	res, err := StreamCount(p.NumVertices(), func(emit func(u, v int64) bool) {
		p.EachArc(emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kron.TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != want {
		t.Fatalf("oblivious count %d != formula %d", res.Total, want)
	}
	tc, err := kron.VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < p.NumVertices(); v++ {
		if res.PerVertex[v] != tc.At(v) {
			t.Fatalf("per-vertex mismatch at %d", v)
		}
	}
}

func TestStreamCountErrors(t *testing.T) {
	if _, err := StreamCount(1<<40, func(func(u, v int64) bool) {}); err == nil {
		t.Error("expected refusal of huge vertex count")
	}
	if _, err := StreamCount(2, func(emit func(u, v int64) bool) {
		emit(0, 5)
	}); err == nil {
		t.Error("expected out-of-range arc error")
	}
}

func TestStreamCountDetectsCorruption(t *testing.T) {
	// Drop one arc pair from the stream: totals must diverge from the
	// formula — the whole point of ground-truth validation.
	a := gen.Clique(5)
	p := kron.MustProduct(a, a)
	want, err := kron.TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find one undirected edge and drop both of its orientations.
	var du, dv int64 = -1, -1
	p.EachArc(func(u, v int64) bool {
		if u < v {
			du, dv = u, v
			return false
		}
		return true
	})
	res, err := StreamCount(p.NumVertices(), func(emit func(u, v int64) bool) {
		p.EachArc(func(u, v int64) bool {
			if (u == du && v == dv) || (u == dv && v == du) {
				return true
			}
			return emit(u, v)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == want {
		t.Fatal("corrupted stream went undetected")
	}
}

func TestReportAccessors(t *testing.T) {
	r := &Report{}
	r.add("a", true)
	r.add("b", false)
	r.skip("c", "why")
	if r.AllPassed() {
		t.Error("AllPassed with a failure")
	}
	f := r.Failures()
	if len(f) != 1 || f[0] != "b" {
		t.Errorf("Failures = %v", f)
	}
}

// TestSampledReportsNothingValidatedAsSkipped: with a degree cap no
// sampled vertex meets, or with no samples asked for, neither check
// executes a sample, and neither may be reported as run and passed.
func TestSampledReportsNothingValidatedAsSkipped(t *testing.T) {
	p := kron.MustProduct(gen.WebGraph(2000, 4, 0.7, 1), gen.WebGraph(2000, 4, 0.7, 2))
	r, err := Sampled(p, 64, 64, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"egonet spot checks (0 expanded)", "edge Δ spot checks (0 checked)"}
	if len(r.Checks) != len(want) {
		t.Fatalf("checks = %+v", r.Checks)
	}
	for i, c := range r.Checks {
		if c.Name != want[i] || c.Ran || c.Passed || c.Skipped == "" {
			t.Errorf("check %d = %+v, want %q skipped", i, c, want[i])
		}
	}
	// No samples asked for validates nothing either, and a negative
	// count is refused.
	if r, err = Sampled(p, 0, 0, 1<<20, 1); err != nil || r.Checks[0].Ran || r.Checks[1].Ran {
		t.Errorf("no samples asked: %+v, %v", r, err)
	}
	for _, n := range [][2]int{{-1, 64}, {64, -1}} {
		if _, err := Sampled(p, n[0], n[1], 1<<20, 1); err == nil {
			t.Errorf("Sampled(%d, %d) accepted", n[0], n[1])
		}
	}
}

// TestCompareFailsEachPerturbedColumn raises each column's closed form by
// one at one entry, in turn, and checks that exactly that column's check
// fails; then again with one entry lowered as well, so that the total is
// unchanged and only the entrywise comparison sees it. A column the
// compare loop dropped would pass. The three products between them run
// every column of the table.
func TestCompareFailsEachPerturbedColumn(t *testing.T) {
	g := rng.New(83)
	labels := make([]int32, 9)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	// A directed factor with reciprocal arcs, in which the types of the
	// directed census all differ.
	var arcs []graph.Edge
	randomUndirected(g, 10, 5, 0).EachEdgeUndirected(func(u, v int32) bool {
		switch g.Intn(3) {
		case 0:
			arcs = append(arcs, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
		case 1:
			arcs = append(arcs, graph.Edge{U: u, V: v})
		default:
			arcs = append(arcs, graph.Edge{U: v, V: u})
		}
		return true
	})
	directed := graph.FromEdges(10, arcs, false)
	products := map[string]*kron.Product{
		"loops in both": kron.MustProduct(randomUndirected(g, 8, 4, 0.5), randomUndirected(g, 7, 3, 0.5)),
		"directed":      kron.MustProduct(directed, randomUndirected(g, 6, 3, 0.5)),
		"labeled, Δ_B ≤ 1": kron.MustProduct(randomUndirected(g, 9, 5, 0).WithLabels(labels, 3),
			gen.TriangleLimitedPA(8, 3)),
	}
	ran := map[string]bool{}
	for name, p := range products {
		c, err := p.Materialize(10000, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		cols := kron.Columns(p)
		if r := compare(c, cols); !r.AllPassed() {
			t.Fatalf("%s: unperturbed failures: %v", name, r.Failures())
		}
		for i, col := range cols {
			if col.Skip != "" {
				continue
			}
			ran[col.Name] = true
			for _, keepTotal := range []bool{false, true} {
				bad := slices.Clone(cols)
				bad[i] = perturbed(col, keepTotal)
				if got := compare(c, bad).Failures(); !slices.Equal(got, []string{col.Name}) {
					t.Errorf("%s: %s %s perturbed (total kept: %v): failures %v", name, col.Name, col.Type, keepTotal, got)
				}
			}
		}
	}
	for _, col := range kron.Columns(products["labeled, Δ_B ≤ 1"]) {
		if !ran[col.Name] {
			t.Errorf("no product runs %q", col.Name)
		}
	}
}

// perturbed returns col with one more term in its closed form: +1 at its
// first vertex or arc and, when keepTotal, −1 at its last. Each is a
// unit vector on every factor.
func perturbed(col kron.Column, keepTotal bool) kron.Column {
	unit := func(ref [][]int64, at func(n int) int) [][]int64 {
		out := make([][]int64, len(ref))
		for i, v := range ref {
			out[i] = make([]int64, len(v))
			out[i][at(len(v))] = 1
		}
		return out
	}
	first := func(int) int { return 0 }
	last := func(n int) int { return n - 1 }
	switch e := col.Eval.(type) {
	case *kron.KronVecSum:
		s, ref := *e, e.Terms[0].Vecs
		s.Terms = append(slices.Clip(s.Terms), kron.Term{Coef: s.Den, Vecs: unit(ref, first)})
		if keepTotal {
			s.Terms = append(s.Terms, kron.Term{Coef: -s.Den, Vecs: unit(ref, last)})
		}
		col.Eval = &s
	case *kron.KronMatSum:
		s, ref := *e, e.Terms[0].Vecs
		s.Terms = append(slices.Clip(s.Terms), kron.Term{Coef: 1, Vecs: unit(ref, first)})
		if keepTotal {
			s.Terms = append(s.Terms, kron.Term{Coef: -1, Vecs: unit(ref, last)})
		}
		col.Eval = &s
	}
	return col
}
