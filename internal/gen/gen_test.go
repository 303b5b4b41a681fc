package gen

import (
	"testing"
	"testing/quick"

	"kronvalid/internal/graph"
	"kronvalid/internal/triangle"
)

func TestCliqueCounts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10} {
		k := Clique(n)
		if k.NumVertices() != n {
			t.Fatalf("K_%d vertices = %d", n, k.NumVertices())
		}
		if got, want := k.NumEdgesUndirected(), int64(n*(n-1)/2); got != want {
			t.Errorf("K_%d edges = %d, want %d", n, got, want)
		}
		if k.HasAnyLoop() {
			t.Errorf("K_%d has loops", n)
		}
		j := CliqueWithLoops(n)
		if j.NumLoops() != int64(n) {
			t.Errorf("J_%d loops = %d", n, j.NumLoops())
		}
		if got, want := j.NumEdgesUndirected(), int64(n*(n-1)/2+n); got != want {
			t.Errorf("J_%d edges = %d, want %d", n, got, want)
		}
	}
}

func TestSimpleFamilies(t *testing.T) {
	p := Path(5)
	if p.NumEdgesUndirected() != 4 || triangle.Count(p).Total != 0 {
		t.Error("Path(5) wrong")
	}
	c := Cycle(5)
	if c.NumEdgesUndirected() != 5 || triangle.Count(c).Total != 0 {
		t.Error("Cycle(5) wrong")
	}
	if triangle.Count(Cycle(3)).Total != 1 {
		t.Error("Cycle(3) should be one triangle")
	}
	s := Star(6)
	if s.NumEdgesUndirected() != 5 || s.Degree(0) != 5 || triangle.Count(s).Total != 0 {
		t.Error("Star(6) wrong")
	}
	kb := CompleteBipartite(3, 4)
	if kb.NumEdgesUndirected() != 12 || triangle.Count(kb).Total != 0 {
		t.Error("K_{3,4} wrong")
	}
	if !Triangle().Equal(Clique(3)) {
		t.Error("Triangle() != K_3")
	}
}

func TestHubCycleIsEx2(t *testing.T) {
	h := HubCycle(4)
	if h.NumVertices() != 5 {
		t.Fatalf("vertices = %d", h.NumVertices())
	}
	if h.NumEdgesUndirected() != 8 {
		t.Fatalf("edges = %d, want 8", h.NumEdgesUndirected())
	}
	res := triangle.Count(h)
	if res.Total != 4 {
		t.Fatalf("triangles = %d, want 4", res.Total)
	}
	// Hub edges (0,v) participate in 2 triangles; cycle edges in 1.
	for v := int32(1); v <= 4; v++ {
		if got := res.EdgeDelta[h.ArcIndex(0, v)]; got != 2 {
			t.Errorf("hub edge (0,%d) Δ = %d, want 2", v, got)
		}
	}
	for v := int32(1); v <= 4; v++ {
		next := v%4 + 1
		if got := res.EdgeDelta[h.ArcIndex(v, next)]; got != 1 {
			t.Errorf("cycle edge (%d,%d) Δ = %d, want 1", v, next, got)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 0.1, 7)
	if !g.IsSymmetric() || g.HasAnyLoop() {
		t.Fatal("ER graph malformed")
	}
	m := g.NumEdgesUndirected()
	// Expected 495 edges; allow wide slack.
	if m < 300 || m > 700 {
		t.Errorf("ER(100, 0.1) edges = %d, far from expectation 495", m)
	}
	// Determinism.
	if !g.Equal(ErdosRenyi(100, 0.1, 7)) {
		t.Error("same-seed ER graphs differ")
	}
	if g.Equal(ErdosRenyi(100, 0.1, 8)) {
		t.Error("different-seed ER graphs identical")
	}
	// The Go function clamps an out-of-range probability into [0, 1];
	// only the spec surfaces reject it.
	if got, want := ErdosRenyi(20, 1.5, 1).NumEdgesUndirected(), int64(20*19/2); got != want {
		t.Errorf("p>1 edges = %d, want complete %d", got, want)
	}
	if got := ErdosRenyi(20, -1, 1).NumEdgesUndirected(); got != 0 {
		t.Errorf("p<0 edges = %d, want 0", got)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := fromSpec(t, "ba:n=500,d=3,seed=11")
	if !g.IsSymmetric() || g.HasAnyLoop() {
		t.Fatal("BA graph malformed")
	}
	if _, comps := g.ConnectedComponents(); comps != 1 {
		t.Errorf("BA graph has %d components, want 1", comps)
	}
	// Each vertex past the seed draws m=3 attachments; dropped self
	// loops and merged duplicate draws shave off a few edges.
	maxEdges := int64(3 + (500-4)*3)
	if got := g.NumEdgesUndirected(); got > maxEdges || got < maxEdges*9/10 {
		t.Errorf("BA edges = %d, want within 10%% below %d", got, maxEdges)
	}
	// Heavy tail: max degree far above mean.
	var maxd int64
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > maxd {
			maxd = d
		}
	}
	if maxd < 20 {
		t.Errorf("BA max degree = %d, expected a hub", maxd)
	}
	if !g.Equal(fromSpec(t, "ba:n=500,d=3,seed=11")) {
		t.Error("same-seed BA graphs differ")
	}
}

func TestWebGraphHasManyTriangles(t *testing.T) {
	g := WebGraph(2000, 4, 0.8, 13)
	if !g.IsSymmetric() || g.HasAnyLoop() {
		t.Fatal("web graph malformed")
	}
	if _, comps := g.ConnectedComponents(); comps != 1 {
		t.Errorf("web graph has %d components", comps)
	}
	res := triangle.Count(g)
	// Triad closure should produce on the order of one triangle per
	// closure step; require a healthy count.
	if res.Total < 2000 {
		t.Errorf("web graph triangles = %d, expected thousands", res.Total)
	}
	// Compare to a same-size BA graph: triad closure must yield more.
	ba := fromSpec(t, "ba:n=2000,d=4,seed=13")
	if baTotal := triangle.Count(ba).Total; res.Total <= baTotal {
		t.Errorf("web graph (%d) should out-triangle BA (%d)", res.Total, baTotal)
	}
}

func TestRMAT(t *testing.T) {
	g := fromSpec(t, "rmat:scale=10,seed=17") // the Graph500 parameters
	if g.NumVertices() != 1024 {
		t.Fatalf("RMAT vertices = %d", g.NumVertices())
	}
	if !g.IsSymmetric() || g.HasAnyLoop() {
		t.Fatal("RMAT graph malformed")
	}
	if g.NumEdgesUndirected() == 0 {
		t.Fatal("RMAT graph empty")
	}
	if !g.Equal(fromSpec(t, "rmat:scale=10,seed=17")) {
		t.Error("same-seed RMAT graphs differ")
	}
	// Skew: with Graph500 parameters low-id vertices are much heavier.
	var low, high int64
	for v := 0; v < 512; v++ {
		low += g.Degree(int32(v))
	}
	for v := 512; v < 1024; v++ {
		high += g.Degree(int32(v))
	}
	if low <= high {
		t.Errorf("RMAT degree mass not skewed: low=%d high=%d", low, high)
	}
}

func TestTriangleLimitedPA(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		g := TriangleLimitedPA(400, seed)
		if g.NumVertices() != 400 || !g.IsSymmetric() || g.HasAnyLoop() {
			t.Fatal("PA graph malformed")
		}
		if _, comps := g.ConnectedComponents(); comps != 1 {
			t.Fatalf("PA graph disconnected (%d components)", comps)
		}
		if mx := MaxEdgeTriangles(g); mx > 1 {
			t.Fatalf("seed %d: max edge triangles = %d, want <= 1", seed, mx)
		}
		// It should actually contain triangles (not vacuous).
		if triangle.Count(g).Total == 0 {
			t.Errorf("seed %d: PA graph has no triangles at all", seed)
		}
	}
	if !TriangleLimitedPA(400, 5).Equal(TriangleLimitedPA(400, 5)) {
		t.Error("same-seed PA graphs differ")
	}
}

func TestQuickTriangleLimitedPAInvariant(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 3 + int(nRaw)%200
		g := TriangleLimitedPA(n, seed)
		_, comps := g.ConnectedComponents()
		return MaxEdgeTriangles(g) <= 1 && comps == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestThinToDeltaOne(t *testing.T) {
	// Start from a dense graph; after thinning: Δ <= 1 and connectivity
	// preserved.
	in := ErdosRenyi(60, 0.2, 21)
	_, compsBefore := in.ConnectedComponents()
	out := ThinToDeltaOne(in, 22)
	if mx := MaxEdgeTriangles(out); mx > 1 {
		t.Fatalf("thinned graph has edge with %d triangles", mx)
	}
	if _, compsAfter := out.ConnectedComponents(); compsAfter != compsBefore {
		t.Fatalf("thinning changed components: %d -> %d", compsBefore, compsAfter)
	}
	// Only removals: every surviving edge existed before.
	out.EachEdgeUndirected(func(u, v int32) bool {
		if !in.HasEdge(u, v) {
			t.Fatalf("thinning invented edge (%d,%d)", u, v)
		}
		return true
	})
}

func TestThinToDeltaOneOnClique(t *testing.T) {
	out := ThinToDeltaOne(Clique(8), 5)
	if mx := MaxEdgeTriangles(out); mx > 1 {
		t.Fatalf("thinned K_8 has edge with %d triangles", mx)
	}
	if _, comps := out.ConnectedComponents(); comps != 1 {
		t.Fatal("thinned K_8 disconnected")
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Cycle(2) },
		func() { HubCycle(2) },
		func() { WebGraph(3, 3, 0.5, 1) },
		func() { TriangleLimitedPA(1, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestChungLu(t *testing.T) {
	// Regular degrees: realized edge count near expectation.
	degs := make([]int64, 400)
	for i := range degs {
		degs[i] = 10
	}
	g := ChungLu(degs, 3)
	if !g.IsSymmetric() || g.HasAnyLoop() {
		t.Fatal("ChungLu output malformed")
	}
	m := g.NumEdgesUndirected()
	// Expected ~ n*d/2 = 2000; allow ±25%.
	if m < 1500 || m > 2500 {
		t.Errorf("ChungLu edges = %d, expected near 2000", m)
	}
	if !g.Equal(ChungLu(degs, 3)) {
		t.Error("same-seed ChungLu differs")
	}
	// Degenerate inputs.
	if ChungLu(nil, 1).NumVertices() != 0 {
		t.Error("empty ChungLu wrong")
	}
	if ChungLu([]int64{0, 0, 0}, 1).NumEdgesUndirected() != 0 {
		t.Error("zero-weight ChungLu has edges")
	}
}

func TestChungLuPreservesDegreeShape(t *testing.T) {
	// Heavy-tailed input weights: the heaviest vertex should realize a
	// much higher degree than the median vertex.
	degs := make([]int64, 1000)
	for i := range degs {
		degs[i] = 2
	}
	degs[0] = 400
	g := ChungLu(degs, 5)
	if g.Degree(0) < 100 {
		t.Errorf("hub degree = %d, expected large", g.Degree(0))
	}
}

func TestExpectedTrianglesChungLu(t *testing.T) {
	if ExpectedTrianglesChungLu(nil) != 0 || ExpectedTrianglesChungLu([]int64{0}) != 0 {
		t.Error("degenerate expectation nonzero")
	}
	// Regular degrees d on n vertices: E[τ] = d³/6.
	degs := make([]int64, 100)
	for i := range degs {
		degs[i] = 12
	}
	if got := ExpectedTrianglesChungLu(degs); got != 288 {
		t.Errorf("E[τ] = %v, want 288", got)
	}
}

func TestChungLuMatchesAnalyticExpectation(t *testing.T) {
	// Average over several samples should land near the analytic value.
	degs := make([]int64, 600)
	for i := range degs {
		degs[i] = int64(3 + i%12)
	}
	want := ExpectedTrianglesChungLu(degs)
	var sum int64
	const trials = 8
	for s := uint64(0); s < trials; s++ {
		sum += triangle.Count(ChungLu(degs, s)).Total
	}
	got := float64(sum) / trials
	if got < want*0.5 || got > want*1.7 {
		t.Errorf("sampled mean τ = %.1f, analytic %.1f", got, want)
	}
}

// TestExplicitBuildersAllocateOnce: each explicit factor builder sizes
// its edge list exactly, so its allocation count does not grow with n.
// Growing the list by append instead costs 7 to 25 more at n=600; the
// one allocation of slack absorbs a runtime allocation a GC cycle may
// land inside the measured loop.
func TestExplicitBuildersAllocateOnce(t *testing.T) {
	builders := []struct {
		name  string
		build func(n int) *graph.Graph
	}{
		{"clique", Clique},
		{"path", Path},
		{"cycle", Cycle},
		{"star", Star},
		{"bipartite", func(n int) *graph.Graph { return CompleteBipartite(n, n/2) }},
		{"hubcycle", HubCycle},
	}
	for _, b := range builders {
		small := testing.AllocsPerRun(10, func() { b.build(8) })
		large := testing.AllocsPerRun(10, func() { b.build(600) })
		if large > small+1 {
			t.Errorf("%s: %v allocations at n=600, %v at n=8", b.name, large, small)
		}
	}
}
