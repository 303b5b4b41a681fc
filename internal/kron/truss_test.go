package kron

import (
	"slices"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/rng"
	"kronvalid/internal/truss"
)

// TestTrussThm3AgainstDirectPeeling validates Thm. 3: with Δ_B ≤ 1, the
// trussness of every product edge equals the A-edge trussness gated by
// membership of the B-edge in a triangle.
func TestTrussThm3AgainstDirectPeeling(t *testing.T) {
	g := rng.New(31)
	for trial := 0; trial < 6; trial++ {
		a := gen.ErdosRenyi(7+g.Intn(5), 0.45, g.Uint64())
		b := gen.TriangleLimitedPA(4+g.Intn(4), g.Uint64())
		p := MustProduct(a, b)
		pt, err := Trussness(p)
		if err != nil {
			t.Fatal(err)
		}
		c := materialize(t, p)
		direct := truss.Decompose(c)
		c.EachEdgeUndirected(func(u, v int32) bool {
			got := pt.At(int64(u), int64(v))
			want := int64(direct.EdgeTruss(u, v))
			if got != want {
				fu := p.FactorsOf(int64(u))
				fv := p.FactorsOf(int64(v))
				t.Fatalf("trial %d: edge (%d,%d) [A:(%d,%d) B:(%d,%d)]: Kronecker truss %d, direct %d",
					trial, u, v, fu[0], fv[0], fu[1], fv[1], got, want)
			}
			return true
		})
		if !slices.Equal(pt.Vector(), trussOnArcs(c)) {
			t.Fatalf("trial %d: the arc walk disagrees with direct peeling", trial)
		}
		// Non-edges report 0.
		if pt.At(0, 0) != 0 && !p.HasEdge(0, 0) {
			t.Error("non-edge reported nonzero trussness")
		}
	}
}

// TestTrussSizesMatchDirect reads |T^(κ)_C| and the largest κ off the
// trussness column: the κ-truss is the edges of trussness ≥ κ.
func TestTrussSizesMatchDirect(t *testing.T) {
	g := rng.New(32)
	a := gen.ErdosRenyi(9, 0.5, g.Uint64())
	b := gen.TriangleLimitedPA(6, g.Uint64())
	p := MustProduct(a, b)
	pt, err := Trussness(p)
	if err != nil {
		t.Fatal(err)
	}
	c := materialize(t, p)
	direct := truss.Decompose(c)
	col := pt.Vector()
	maxK := slices.Max(col)
	for k := int64(3); k <= maxK; k++ {
		var arcs int64
		for _, x := range col {
			if x >= k {
				arcs++
			}
		}
		if got, want := arcs/2, int64(len(direct.KTrussEdges(int(k)))); got != want {
			t.Errorf("|T^(%d)| = %d, direct %d", k, got, want)
		}
	}
	if int(maxK) != direct.MaxK {
		t.Errorf("MaxK = %d, direct %d", maxK, direct.MaxK)
	}
}

func TestTrussRejectsOverloadedB(t *testing.T) {
	// Ex. 2's point: Δ_B ≤ 1 is necessary; the constructor must reject a
	// B that violates it (e.g. the hub-cycle, whose hub edges carry 2).
	a := gen.Clique(4)
	b := gen.HubCycle(4)
	if _, err := Trussness(MustProduct(a, b)); err == nil {
		t.Fatal("Trussness accepted Δ_B > 1")
	}
	// And with loops or directedness.
	if _, err := Trussness(MustProduct(a.WithAllLoops(), gen.TriangleLimitedPA(5, 1))); err == nil {
		t.Fatal("Trussness accepted loops")
	}
}

// TestEx2HubCycleStructure reproduces the paper's Ex. 2 numbers exactly:
// C = A ⊗ A for the 4-cycle-plus-hub has 25 vertices, 128 edges, 96
// triangles; 32 edges carry 1 triangle, 64 carry 2, 32 carry 4; the
// 3-truss has 128 edges, the 4-truss 80, the 5-truss none.
func TestEx2HubCycleStructure(t *testing.T) {
	a := gen.HubCycle(4)
	p := MustProduct(a, a)
	if p.NumVertices() != 25 {
		t.Fatalf("vertices = %d, want 25", p.NumVertices())
	}
	if got := p.NumEdgesUndirected(); got != 128 {
		t.Fatalf("edges = %d, want 128", got)
	}
	total, err := TriangleTotal(p)
	if err != nil {
		t.Fatal(err)
	}
	if total != 96 {
		t.Fatalf("triangles = %d, want 96", total)
	}
	// Edge-participation histogram via Thm. 2.
	dc, err := EdgeParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	c := materialize(t, p)
	hist := map[int64]int64{}
	c.EachArc(func(u, v int32) bool {
		if u < v {
			hist[dc.At(int64(u), int64(v))]++
		}
		return true
	})
	if hist[1] != 32 || hist[2] != 64 || hist[4] != 32 {
		t.Fatalf("Δ histogram = %v, want {1:32, 2:64, 4:32}", hist)
	}
	// Truss structure of C is richer than any Kronecker formula (the
	// paper's point): direct peeling gives 128 / 80 / 0.
	d := truss.Decompose(c)
	if got := len(d.KTrussEdges(3)); got != 128 {
		t.Errorf("|T^(3)| = %d, want 128", got)
	}
	if got := len(d.KTrussEdges(4)); got != 80 {
		t.Errorf("|T^(4)| = %d, want 80", got)
	}
	if got := len(d.KTrussEdges(5)); got != 0 {
		t.Errorf("|T^(5)| = %d, want 0", got)
	}
	// And Thm. 3 must refuse this product (Δ_A = 2 on hub edges).
	if _, err := Trussness(p); err == nil {
		t.Error("Thm. 3 accepted the Ex. 2 product")
	}
}
