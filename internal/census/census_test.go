package census

import (
	"slices"
	"testing"
	"testing/quick"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
	"kronvalid/internal/triangle"
)

// randomDirected builds a random directed graph with a tunable mix of
// reciprocal and one-way edges.
func randomDirected(g *rng.Xoshiro256, n int, avgDeg, reciprocity float64) *graph.Graph {
	var edges []graph.Edge
	target := int(avgDeg * float64(n))
	for i := 0; i < target; i++ {
		u, v := int32(g.Intn(n)), int32(g.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v})
		if g.Float64() < reciprocity {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
	}
	return graph.FromEdges(n, edges, false)
}

func randomUndirected(g *rng.Xoshiro256, n int, avgDeg float64) *graph.Graph {
	var edges []graph.Edge
	target := int(avgDeg * float64(n) / 2)
	for i := 0; i < target; i++ {
		u, v := int32(g.Intn(n)), int32(g.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.FromEdges(n, edges, true)
}

// webCases are small web factors (preferential attachment with triadic
// closure, so hubs and skewed degrees) with each edge oriented at random:
// reciprocal with probability reciprocity, else one way.
func webCases(seed uint64) []*graph.Graph {
	var out []*graph.Graph
	for i, reciprocity := range []float64{0.4, 0.1} {
		base := gen.WebGraph(300, 3, 0.75, seed+uint64(i))
		g := rng.New(seed + uint64(i))
		var arcs []graph.Edge
		base.EachEdgeUndirected(func(u, v int32) bool {
			switch {
			case g.Float64() < reciprocity:
				arcs = append(arcs, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
			case g.Float64() < 0.5:
				arcs = append(arcs, graph.Edge{U: u, V: v})
			default:
				arcs = append(arcs, graph.Edge{U: v, V: u})
			}
			return true
		})
		out = append(out, graph.FromEdges(base.NumVertices(), arcs, false))
	}
	return out
}

// labeledWebCase is a small undirected web factor with three random labels.
func labeledWebCase(seed uint64) *graph.Graph {
	base := gen.WebGraph(300, 3, 0.75, seed)
	g := rng.New(seed)
	labels := make([]int32, base.NumVertices())
	for v := range labels {
		labels[v] = int32(g.Intn(3))
	}
	return base.WithLabels(labels, 3)
}

func TestVertexCensusAlgebraMatchesEnum(t *testing.T) {
	g := rng.New(71)
	var cases []*graph.Graph
	for trial := 0; trial < 20; trial++ {
		cases = append(cases, randomDirected(g, 5+g.Intn(30), 4, 0.4))
	}
	cases = append(cases, webCases(71)...)
	for trial, gr := range cases {
		alg := directedVertexCensusAlgebra(gr)
		enum := DirectedVertexCensus(gr)
		for _, ty := range AllVertexTypes() {
			if !sparse.EqualVec(alg.Counts[ty], enum.Counts[ty]) {
				t.Fatalf("trial %d type %v: algebra %v vs enum %v",
					trial, ty, alg.Counts[ty], enum.Counts[ty])
			}
		}
	}
}

func TestVertexCensusSumsToUndirectedParticipation(t *testing.T) {
	g := rng.New(72)
	for trial := 0; trial < 15; trial++ {
		gr := randomDirected(g, 5+g.Intn(30), 5, 0.3)
		c := DirectedVertexCensus(gr)
		tu := triangle.Count(gr.Undirected()).PerVertex
		if !sparse.EqualVec(c.TotalPerVertex(), tu) {
			t.Fatalf("trial %d: census totals %v != undirected participation %v",
				trial, c.TotalPerVertex(), tu)
		}
	}
}

func TestVertexCensusDirectedThreeCycle(t *testing.T) {
	// 0→1→2→0: the canonical st+ (directed 3-cycle) at every vertex.
	gr := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, false)
	c := DirectedVertexCensus(gr)
	for _, ty := range AllVertexTypes() {
		want := int64(0)
		if ty == STp {
			want = 1
		}
		for v := int32(0); v < 3; v++ {
			if got := c.At(ty, v); got != want {
				t.Errorf("type %v at %d = %d, want %d", ty, v, got, want)
			}
		}
	}
}

func TestVertexCensusFullyReciprocalTriangle(t *testing.T) {
	gr := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, true)
	c := DirectedVertexCensus(gr)
	for _, ty := range AllVertexTypes() {
		want := int64(0)
		if ty == UUo {
			want = 1
		}
		for v := int32(0); v < 3; v++ {
			if got := c.At(ty, v); got != want {
				t.Errorf("type %v at %d = %d, want %d", ty, v, got, want)
			}
		}
	}
}

func TestVertexCensusMixedTriangle(t *testing.T) {
	// 0↔1, 1→2, 0→2: center 0 reads (u on 0-1, s on 0-2, third 1→2 '+')
	// = us+ ≡ su- after canonicalization? Verified: both orderings map
	// through CanonicalVertexType; we simply assert algebra == enum and
	// the full type multiset.
	gr := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 0, V: 2}}, false)
	alg := directedVertexCensusAlgebra(gr)
	enum := DirectedVertexCensus(gr)
	totalTypes := 0
	for _, ty := range AllVertexTypes() {
		if !sparse.EqualVec(alg.Counts[ty], enum.Counts[ty]) {
			t.Fatalf("type %v: %v vs %v", ty, alg.Counts[ty], enum.Counts[ty])
		}
		totalTypes += int(sparse.SumVec(alg.Counts[ty]))
	}
	if totalTypes != 3 { // one triangle seen from three vertices
		t.Errorf("total classified = %d, want 3", totalTypes)
	}
}

// arcAligned reports whether d is a per-edge statistic of g: one value
// per arc, 0 at every loop arc.
func arcAligned(g *graph.Graph, d []int64) bool {
	if int64(len(d)) != g.NumArcs() {
		return false
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if a := g.ArcIndex(v, v); a >= 0 && d[a] != 0 {
			return false
		}
	}
	return true
}

func TestEdgeCensusAlgebraMatchesEnum(t *testing.T) {
	g := rng.New(73)
	var cases []*graph.Graph
	for trial := 0; trial < 20; trial++ {
		gr := randomDirected(g, 5+g.Intn(25), 4, 0.4)
		if trial%2 == 1 {
			gr = gr.WithAllLoops()
		}
		cases = append(cases, gr)
	}
	web := webCases(73)
	cases = append(cases, web[0], web[1].WithAllLoops())
	for trial, gr := range cases {
		alg := directedEdgeCensusAlgebra(gr)
		enum := DirectedEdgeCensus(gr)
		for _, ty := range AllEdgeTypes() {
			if !arcAligned(gr, alg.Delta[ty]) || !slices.Equal(alg.Delta[ty], enum.Delta[ty]) {
				t.Fatalf("trial %d type %v:\nalgebra\n%v\nenum\n%v",
					trial, ty, alg.Delta[ty], enum.Delta[ty])
			}
		}
	}
}

func TestEdgeCensusUndirectedReducesToDelta(t *testing.T) {
	g := rng.New(74)
	for trial := 0; trial < 10; trial++ {
		gr := randomUndirected(g, 5+g.Intn(30), 5)
		c := DirectedEdgeCensus(gr)
		want := triangle.Count(gr).EdgeDelta
		if !slices.Equal(c.Delta[Ooo], want) {
			t.Fatalf("trial %d: Δ(ooo) != Δ_A", trial)
		}
		for _, ty := range AllEdgeTypes() {
			if ty != Ooo && sparse.SumVec(c.Delta[ty]) != 0 {
				t.Fatalf("trial %d: undirected graph has nonzero %v census", trial, ty)
			}
		}
	}
}

func TestEdgeCensusDirectedThreeCycle(t *testing.T) {
	gr := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, false)
	c := DirectedEdgeCensus(gr)
	for _, ty := range AllEdgeTypes() {
		want := int64(0)
		if ty == Pmm {
			want = 3 // each arc reads the cycle as +--
		}
		if got := sparse.SumVec(c.Delta[ty]); got != want {
			t.Errorf("type %v total = %d, want %d", ty, got, want)
		}
	}
}

func TestEdgeCensusSupportsLieInCorrectParts(t *testing.T) {
	g := rng.New(75)
	gr := randomDirected(g, 30, 5, 0.5)
	work := gr.WithoutLoops()
	ad := sparse.Adjacency(work.DirectedPart())
	ar := sparse.Adjacency(work.ReciprocalPart())
	c := DirectedEdgeCensus(gr)
	for _, ty := range AllEdgeTypes() {
		central, _, _ := edgeTypeParts(ty)
		mask := ar
		if central {
			mask = ad
		}
		// Every nonzero of the census must sit on a mask arc.
		ok, a := true, 0
		gr.EachArc(func(r, cc int32) bool {
			ok = c.Delta[ty][a] == 0 || mask.At(int(r), int(cc)) != 0
			a++
			return ok
		})
		if !ok {
			t.Errorf("type %v has counts off its central part", ty)
		}
	}
}

func TestCanonicalVertexTypeAliases(t *testing.T) {
	cases := []struct {
		r1, r2 Role
		d      Dir
		want   VertexType
	}{
		{RoleSource, RoleSource, DirBackward, SSp},    // ss- ≡ ss+
		{RoleUndirected, RoleSource, DirForward, SUm}, // us+ ≡ su-
		{RoleUndirected, RoleSource, DirUndirected, SUo},
		{RoleTarget, RoleSource, DirForward, STm}, // ts+ ≡ st-
		{RoleTarget, RoleSource, DirUndirected, STo},
		{RoleTarget, RoleUndirected, DirForward, UTm}, // tu+ ≡ ut-
		{RoleTarget, RoleTarget, DirBackward, TTp},    // tt- ≡ tt+
		{RoleUndirected, RoleUndirected, DirBackward, UUp},
	}
	for _, c := range cases {
		if got := CanonicalVertexType(c.r1, c.r2, c.d); got != c.want {
			t.Errorf("Canonical(%v,%v,%v) = %v, want %v", c.r1, c.r2, c.d, got, c.want)
		}
	}
}

func TestCanonicalEdgeReadingMirrors(t *testing.T) {
	// The three non-canonical reciprocal readings defer to the mirror arc.
	if ty, here := CanonicalEdgeReading(false, DirBackward, DirBackward); ty != Opp || here {
		t.Error("o-- should defer to o++ at mirror arc")
	}
	if ty, here := CanonicalEdgeReading(false, DirUndirected, DirForward); ty != Omo || here {
		t.Error("oo+ should defer to o-o at mirror arc")
	}
	if ty, here := CanonicalEdgeReading(false, DirUndirected, DirBackward); ty != Opo || here {
		t.Error("oo- should defer to o+o at mirror arc")
	}
	// Self-mirror readings record on both arcs.
	for _, d := range []struct{ d1, d2 Dir }{
		{DirForward, DirBackward}, {DirBackward, DirForward}, {DirUndirected, DirUndirected},
	} {
		if _, here := CanonicalEdgeReading(false, d.d1, d.d2); !here {
			t.Errorf("(o,%v,%v) should record at its own arc", d.d1, d.d2)
		}
	}
}

func TestTypeStringsDistinct(t *testing.T) {
	seenV := map[string]bool{}
	for _, ty := range AllVertexTypes() {
		s := ty.String()
		if seenV[s] {
			t.Errorf("duplicate vertex type name %q", s)
		}
		seenV[s] = true
	}
	seenE := map[string]bool{}
	for _, ty := range AllEdgeTypes() {
		s := ty.String()
		if seenE[s] {
			t.Errorf("duplicate edge type name %q", s)
		}
		seenE[s] = true
	}
}

func TestQuickCensusAgreement(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		gr := randomDirected(g, 4+g.Intn(15), 3, g.Float64())
		alg := directedVertexCensusAlgebra(gr)
		enum := DirectedVertexCensus(gr)
		for _, ty := range AllVertexTypes() {
			if !sparse.EqualVec(alg.Counts[ty], enum.Counts[ty]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// ---- labeled census ----

func randomLabeled(g *rng.Xoshiro256, n, L int, avgDeg float64) *graph.Graph {
	gr := randomUndirected(g, n, avgDeg)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(g.Intn(L))
	}
	return gr.WithLabels(labels, L)
}

func TestLabeledVertexCensusMatchesEnum(t *testing.T) {
	g := rng.New(81)
	var cases []*graph.Graph
	for trial := 0; trial < 15; trial++ {
		cases = append(cases, randomLabeled(g, 5+g.Intn(25), 1+g.Intn(4), 5))
	}
	cases = append(cases, labeledWebCase(81))
	for trial, gr := range cases {
		alg := labeledVertexCensusAlgebra(gr)
		enum := LabeledVertexCensus(gr)
		for _, ty := range AllLabelVertexTypes(gr.NumLabels()) {
			if !sparse.EqualVec(alg[ty], enum[ty]) {
				t.Fatalf("trial %d type %v: %v vs %v", trial, ty, alg[ty], enum[ty])
			}
		}
	}
}

func TestLabeledVertexCensusSumsToUnlabeled(t *testing.T) {
	g := rng.New(82)
	for trial := 0; trial < 10; trial++ {
		gr := randomLabeled(g, 5+g.Intn(25), 3, 5)
		alg := LabeledVertexCensus(gr)
		sum := make([]int64, gr.NumVertices())
		for _, vec := range alg {
			for v, x := range vec {
				sum[v] += x
			}
		}
		want := triangle.Count(gr).PerVertex
		if !sparse.EqualVec(sum, want) {
			t.Fatalf("trial %d: labeled sums %v != t_A %v", trial, sum, want)
		}
	}
}

func TestLabeledEdgeCensusMatchesEnum(t *testing.T) {
	g := rng.New(83)
	var cases []*graph.Graph
	for trial := 0; trial < 15; trial++ {
		gr := randomLabeled(g, 5+g.Intn(20), 1+g.Intn(3), 4)
		if trial%2 == 1 {
			gr = gr.WithAllLoops()
		}
		cases = append(cases, gr)
	}
	web := labeledWebCase(83)
	cases = append(cases, web, web.WithAllLoops())
	for trial, gr := range cases {
		alg := labeledEdgeCensusAlgebra(gr)
		enum := LabeledEdgeCensus(gr)
		for _, ty := range AllLabelEdgeTypes(gr.NumLabels()) {
			if !arcAligned(gr, alg[ty]) || !slices.Equal(alg[ty], enum[ty]) {
				t.Fatalf("trial %d type %v:\n%v\nvs\n%v", trial, ty, alg[ty], enum[ty])
			}
		}
	}
}

func TestLabeledEdgeCensusSumsToDelta(t *testing.T) {
	g := rng.New(84)
	gr := randomLabeled(g, 25, 3, 5)
	alg := LabeledEdgeCensus(gr)
	sum := make([]int64, gr.NumArcs())
	for _, d := range alg {
		for a, x := range d {
			sum[a] += x
		}
	}
	want := triangle.Count(gr).EdgeDelta
	if !slices.Equal(sum, want) {
		t.Fatal("labeled edge census does not sum to Δ_A")
	}
}

func TestLabeledSingleColorReducesToPlainCensus(t *testing.T) {
	g := rng.New(85)
	gr := randomLabeled(g, 20, 1, 5)
	alg := LabeledVertexCensus(gr)
	only := alg[LabelVertexType{0, 0, 0}]
	want := triangle.Count(gr).PerVertex
	if !sparse.EqualVec(only, want) {
		t.Fatal("single-label census != t_A")
	}
}

func TestLabeledThreeColorTriangle(t *testing.T) {
	// One triangle with labels 0,1,2: center sees type (own|other two).
	gr := graph.FromEdges(3, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, true).WithLabels([]int32{0, 1, 2}, 3)
	// The oracle's filters are orthogonal diagonal projections summing to I.
	if !labelFilter(gr, 0).Add(labelFilter(gr, 1)).Add(labelFilter(gr, 2)).Equal(sparse.Identity(3)) {
		t.Error("sum of label filters != I")
	}
	if labelFilter(gr, 0).Mul(labelFilter(gr, 1)).NNZ() != 0 {
		t.Error("label filters not orthogonal")
	}
	alg := LabeledVertexCensus(gr)
	if alg[NewLabelVertexType(0, 1, 2)][0] != 1 {
		t.Error("center 0 should see (0|1,2)")
	}
	if alg[NewLabelVertexType(1, 0, 2)][1] != 1 {
		t.Error("center 1 should see (1|0,2)")
	}
	if alg[NewLabelVertexType(2, 0, 1)][2] != 1 {
		t.Error("center 2 should see (2|0,1)")
	}
	// No other nonzero counts.
	var total int64
	for _, vec := range alg {
		total += sparse.SumVec(vec)
	}
	if total != 3 {
		t.Errorf("total labeled counts = %d, want 3", total)
	}
}

func TestLabeledCensusPanicsOnUnlabeled(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LabeledVertexCensus(graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, true))
}
