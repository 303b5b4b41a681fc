package kronvalid

import (
	"bytes"
	"testing"
)

// TestFacadeQuickstart exercises the README quick-start path end to end.
func TestFacadeQuickstart(t *testing.T) {
	a := WebGraph(300, 3, 0.7, 42)
	p := MustProduct(a, a)
	tc, err := VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	total, err := TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	ta := CountTriangles(a).Total
	if total != 6*ta*ta {
		t.Fatalf("τ(C) = %d, want %d", total, 6*ta*ta)
	}
	// Spot-verify three egonets against the formula.
	for _, v := range []int64{0, p.NumVertices() / 2, p.NumVertices() - 1} {
		if _, err := VerifyEgonet(p, tc, v, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeGenerators(t *testing.T) {
	if Clique(5).NumEdgesUndirected() != 10 {
		t.Error("Clique")
	}
	if CliqueWithLoops(4).NumLoops() != 4 {
		t.Error("CliqueWithLoops")
	}
	if HubCycle(4).NumVertices() != 5 {
		t.Error("HubCycle")
	}
	if Path(4).NumEdgesUndirected() != 3 || Cycle(4).NumEdgesUndirected() != 4 ||
		Star(4).NumEdgesUndirected() != 3 || CompleteBipartite(2, 3).NumEdgesUndirected() != 6 {
		t.Error("simple families")
	}
	if MaxEdgeTriangles(TriangleLimitedPA(100, 1)) > 1 {
		t.Error("TriangleLimitedPA violated Δ ≤ 1")
	}
	thin := ThinToDeltaOne(ErdosRenyi(30, 0.3, 2), 3)
	if MaxEdgeTriangles(thin) > 1 {
		t.Error("ThinToDeltaOne violated Δ ≤ 1")
	}
	if Graph500RMAT(8, 1).NumVertices() != 256 {
		t.Error("Graph500RMAT")
	}
	if BarabasiAlbert(50, 2, 1).NumVertices() != 50 {
		t.Error("BarabasiAlbert")
	}
}

func TestFacadeStats(t *testing.T) {
	g := HubCycle(4)
	res := CountTriangles(g)
	if res.Total != 4 {
		t.Errorf("τ = %d", res.Total)
	}
	if GlobalClusteringCoefficient(g) <= 0 {
		t.Error("transitivity")
	}
	if len(LocalClusteringCoefficients(g)) != 5 {
		t.Error("local cc length")
	}
	d := DecomposeTruss(g)
	if d.MaxK != 3 {
		t.Errorf("MaxK = %d", d.MaxK)
	}
}

func TestFacadeDirectedAndLabeled(t *testing.T) {
	a := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 3, V: 2}}, false)
	b := Clique(3)
	p := MustProduct(a, b)
	ds, err := DirectedCensus(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Vertex) != 15 || len(ds.Edge) != 15 {
		t.Fatalf("census sizes %d/%d", len(ds.Vertex), len(ds.Edge))
	}
	if len(AllDirVertexTypes()) != 15 || len(AllDirEdgeTypes()) != 15 {
		t.Error("type enumerations wrong")
	}
	lab := Clique(3).WithLabels([]int32{0, 1, 2}, 3)
	lp := MustProduct(lab, Clique(3))
	ls, err := LabeledCensus(lp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Vertex) != 3*6 { // |L| * C(|L|+1, 2) = 3 * 6
		t.Errorf("labeled vertex types = %d", len(ls.Vertex))
	}
}

func TestFacadeTrussAndPlan(t *testing.T) {
	a := ErdosRenyi(10, 0.5, 4)
	b := TriangleLimitedPA(8, 5)
	p := MustProduct(a, b)
	pt, err := ProductTrussDecomposition(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = pt.MaxK()
	plan := ProductSource(p, 4)
	var sum int64
	for w := 0; w < plan.Shards(); w++ {
		sum += plan.ShardSize(w)
	}
	if sum != p.NumArcs() {
		t.Error("plan does not cover the product")
	}
}

func TestFacadeIO(t *testing.T) {
	g := HubCycle(5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, g.NumVertices(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Error("round trip failed")
	}
}

func TestFacadeHistograms(t *testing.T) {
	a := WebGraph(200, 3, 0.6, 7)
	b := WebGraph(150, 3, 0.6, 8)
	hC := KronHistogram(NewHistogram(a.Degrees()), NewHistogram(b.Degrees()))
	if hC.Total() != int64(a.NumVertices())*int64(b.NumVertices()) {
		t.Error("product histogram total wrong")
	}
	// §III.A ratio squaring.
	p := MustProduct(a, b)
	maxC, _ := p.MaxDegree()
	rc := float64(maxC) / float64(p.NumVertices())
	ra := MaxDegreeRatio(a.Degrees())
	rb := MaxDegreeRatio(b.Degrees())
	if diff := rc - ra*rb; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("max-degree ratio %v != product %v", rc, ra*rb)
	}
}
