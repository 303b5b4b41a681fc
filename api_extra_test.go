package kronvalid

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

func TestFacadeMultiProduct(t *testing.T) {
	b := WebGraph(128, 3, 0.7, 3)
	p, err := KroneckerPower(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 3 {
		t.Errorf("K = %d", p.K())
	}
	tau, err := TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	tb := CountTriangles(b).Total
	if tau != 36*tb*tb*tb {
		t.Fatalf("τ(B^⊗3) = %d, want 36·%d³", tau, tb)
	}
	ts, err := VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	total, err := ts.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 3*tau {
		t.Error("participation total != 3τ")
	}
	delta, err := EdgeParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	var eu, ev int64 = -1, -1
	p.EachArc(func(u, v int64) bool { eu, ev = u, v; return false })
	if delta.At(eu, ev) < 0 {
		t.Error("negative edge delta")
	}
	// Three-distinct-factor construction.
	mp, err := NewProduct(Clique(3), Cycle(4), Path(5))
	if err != nil {
		t.Fatal(err)
	}
	if mp.NumVertices() != 60 {
		t.Errorf("NumVertices = %d", mp.NumVertices())
	}
}

func TestFacadeValidation(t *testing.T) {
	a := ErdosRenyi(10, 0.4, 1)
	b := TriangleLimitedPA(8, 2)
	p := MustProduct(a, b)
	r, err := ValidateFull(p, 10000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllPassed() {
		t.Fatalf("failures: %v", r.Failures())
	}
	big := MustProduct(WebGraph(2048, 3, 0.7, 5), WebGraph(2048, 3, 0.7, 6))
	rs, err := ValidateSampled(big, 8, 8, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.AllPassed() {
		t.Fatalf("sampled failures: %v", rs.Failures())
	}
}

func TestFacadeBinaryIO(t *testing.T) {
	g := WebGraph(100, 3, 0.7, 9)
	var buf bytes.Buffer
	if err := WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("binary round trip failed")
	}
}

func TestFacadeClusteringAndWedges(t *testing.T) {
	a := WebGraph(200, 3, 0.7, 11)
	p := MustProduct(a, a)
	wedges, err := ProductWedgeCount(p)
	if err != nil {
		t.Fatal(err)
	}
	tau, err := TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := ProductGlobalClustering(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cc-3*float64(tau)/float64(wedges)) > 1e-12 {
		t.Error("transitivity inconsistent with wedge count")
	}
	if cc <= 0 || cc >= 1 {
		t.Errorf("transitivity %v out of (0,1)", cc)
	}
}

func TestFacadeChungLuNull(t *testing.T) {
	a := WebGraph(300, 3, 0.75, 13)
	p := MustProduct(a, a)
	degs := p.DegreeVector()
	want := ExpectedTrianglesChungLu(degs)
	if want <= 0 {
		t.Fatal("expected triangles should be positive")
	}
	cl := ChungLu(degs, 17)
	got := CountTriangles(cl).Total
	if float64(got) < want/3 || float64(got) > want*3 {
		t.Errorf("sampled null τ = %d, analytic %.0f", got, want)
	}
	// The mechanism of Rem. 1: the nonstochastic product keeps more.
	tau, err := TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= got {
		t.Errorf("nonstochastic τ = %d should exceed independent null %d", tau, got)
	}
}

func TestFacadeTruss(t *testing.T) {
	g := HubCycle(4)
	p := MustProduct(g, g)
	// Thm. 3 must reject (Δ = 2 on hub edges), per Ex. 2.
	if _, err := ProductTrussDecomposition(p); err == nil {
		t.Fatal("expected Thm. 3 rejection")
	}
	ok := MustProduct(Clique(5), TriangleLimitedPA(10, 3))
	pt, err := ProductTrussDecomposition(ok)
	if err != nil {
		t.Fatal(err)
	}
	if maxK := slices.Max(pt.Vector()); maxK != 5 {
		t.Errorf("MaxK = %d, want 5 (K_5 factor)", maxK)
	}
}

func TestFacadeCensusOfExplicitGraphs(t *testing.T) {
	dir := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, false)
	vc := DirectedVertexCensusOf(dir)
	var total int64
	for _, ty := range AllDirVertexTypes() {
		for v := int32(0); v < 3; v++ {
			total += vc.At(ty, v)
		}
	}
	if total != 3 {
		t.Errorf("3-cycle census total = %d, want 3", total)
	}
	ec := DirectedEdgeCensusOf(dir)
	var eTotal int64
	for _, ty := range AllDirEdgeTypes() {
		for _, x := range ec.Delta[ty] {
			eTotal += x
		}
	}
	if eTotal != 3 {
		t.Errorf("3-cycle edge census total = %d, want 3", eTotal)
	}
}

func TestFacadeDegrees(t *testing.T) {
	a := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, false)
	b := Clique(3)
	p := MustProduct(a, b)
	dOut := OutDegrees(p)
	dIn := InDegrees(p)
	var sumOut, sumIn int64
	for v := int64(0); v < p.NumVertices(); v++ {
		sumOut += dOut.At(v)
		sumIn += dIn.At(v)
	}
	if sumOut != sumIn || sumOut != p.NumArcs() {
		t.Errorf("degree sums %d/%d, want %d", sumOut, sumIn, p.NumArcs())
	}
	if !math.IsNaN(HillEstimator([]int64{1, 1}, 5)) {
		t.Error("HillEstimator should be NaN on tiny samples")
	}
}
