package kron

import (
	"errors"
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/rng"
	"kronvalid/internal/triangle"
)

func TestEgonetMatchesDirectCount(t *testing.T) {
	g := rng.New(41)
	for trial := 0; trial < 6; trial++ {
		a := randomUndirected(g, 6+g.Intn(6), 3.5, g.Float64()*0.5)
		b := randomUndirected(g, 5+g.Intn(6), 3.5, g.Float64()*0.5)
		p := MustProduct(a, b)
		tc, err := VertexParticipation(p)
		if err != nil {
			t.Fatal(err)
		}
		c := materialize(t, p)
		direct := triangle.Count(c).PerVertex
		for v := int64(0); v < p.NumVertices(); v++ {
			ego, err := ExtractEgonet(p, v, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if ego.LocalTriangles != direct[v] {
				t.Fatalf("trial %d: egonet(%d) triangles = %d, direct %d",
					trial, v, ego.LocalTriangles, direct[v])
			}
			if ego.Degree != c.Degree(int32(v)) {
				t.Fatalf("trial %d: egonet(%d) degree = %d, explicit %d",
					trial, v, ego.Degree, c.Degree(int32(v)))
			}
			if _, err := VerifyEgonet(p, tc, v, 1<<20); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestFig7Procedure reproduces the paper's Fig. 7 experiment shape:
// pick degree-3 vertices of A with 1, 2, 3 triangles; their product
// vertices in A⊗A have degree 9 and doubled triangle products, and in
// A⊗(A+I) degree 12 with t_A ⊗ diag(B³) triangle counts.
func TestFig7Procedure(t *testing.T) {
	// Build a web-like factor guaranteed to contain degree-3 vertices
	// with 1, 2 and 3 triangles.
	a := gen.WebGraph(400, 3, 0.7, 9)
	statsA := ComputeFactorStats(a)
	byTriangles := map[int64]int32{}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Degree(int32(v)) == 3 {
			tv := statsA.T[v]
			if _, seen := byTriangles[tv]; !seen && tv >= 1 && tv <= 3 {
				byTriangles[tv] = int32(v)
			}
		}
	}
	for _, want := range []int64{1, 2, 3} {
		if _, ok := byTriangles[want]; !ok {
			t.Skipf("factor lacks a degree-3 vertex with %d triangles; adjust seed", want)
		}
	}

	// A ⊗ A: the nine cross vertices have degree 9 and t = 2·tA·tA'.
	pAA := MustProduct(a, a)
	tAA, err := VertexParticipation(pAA)
	if err != nil {
		t.Fatal(err)
	}
	for _, ta := range []int64{1, 2, 3} {
		for _, tb := range []int64{1, 2, 3} {
			v := pAA.Vertex(byTriangles[ta], byTriangles[tb])
			if got := pAA.Degree(v); got != 9 {
				t.Errorf("A⊗A degree(%d) = %d, want 9", v, got)
			}
			want := 2 * ta * tb
			if got := tAA.At(v); got != want {
				t.Errorf("A⊗A t(%d) = %d, want %d", v, got, want)
			}
			ego, err := ExtractEgonet(pAA, v, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if ego.LocalTriangles != want {
				t.Errorf("A⊗A egonet(%d) = %d triangles, want %d", v, ego.LocalTriangles, want)
			}
		}
	}

	// A ⊗ B with B = A + I: degree 12, t = tA · diag(B³)_k.
	b := a.WithAllLoops()
	pAB := MustProduct(a, b)
	statsB := ComputeFactorStats(b)
	tAB, err := VertexParticipation(pAB)
	if err != nil {
		t.Fatal(err)
	}
	if pAB.NumLoops() != 0 {
		t.Fatal("A⊗(A+I) should have no self loops")
	}
	for _, ta := range []int64{1, 2, 3} {
		for _, tb := range []int64{1, 2, 3} {
			v := pAB.Vertex(byTriangles[ta], byTriangles[tb])
			if got := pAB.Degree(v); got != 12 {
				t.Errorf("A⊗B degree(%d) = %d, want 12", v, got)
			}
			want := ta * statsB.DiagCube[byTriangles[tb]]
			if got := tAB.At(v); got != want {
				t.Errorf("A⊗B t(%d) = %d, want %d", v, got, want)
			}
			ego, err := ExtractEgonet(pAB, v, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if ego.LocalTriangles != want {
				t.Errorf("A⊗B egonet(%d) = %d triangles, want %d", v, ego.LocalTriangles, want)
			}
		}
	}
}

// TestEgonetAtMaxDegreeIsInduced: at the busiest vertex of a product
// with loops in B, where some neighbors probe the later ids and others
// walk their rows, the egonet is the induced subgraph of the explicit
// product, less loops.
func TestEgonetAtMaxDegreeIsInduced(t *testing.T) {
	g := rng.New(43)
	p := MustProduct(gen.WebGraph(60, 3, 0.7, 7), randomUndirected(g, 12, 4, 0.5))
	_, v := p.MaxDegree()
	ego, err := ExtractEgonet(p, v, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := materialize(t, p)
	ids := make([]int32, len(ego.ProductIDs))
	for i, id := range ego.ProductIDs {
		ids[i] = int32(id)
	}
	sub, _ := c.InducedSubgraph(ids)
	if want := sub.WithoutLoops(); !ego.Local.Equal(want) {
		t.Fatalf("egonet of %d: %d arcs, induced subgraph %d", v, ego.Local.NumArcs(), want.NumArcs())
	}
	if want := triangle.Count(c).PerVertex[v]; ego.LocalTriangles != want {
		t.Fatalf("egonet of %d: %d triangles, direct %d", v, ego.LocalTriangles, want)
	}
}

func TestEgonetDegreeLimit(t *testing.T) {
	a := gen.Clique(10)
	p := MustProduct(a, a)
	_, err := ExtractEgonet(p, 0, 5)
	if err == nil {
		t.Fatal("expected degree-limit error")
	}
}

func TestEgonetRejectsDirected(t *testing.T) {
	dir := randomDirected(rng.New(4), 5, 2, 0.2)
	und := gen.Clique(3)
	p := MustProduct(dir, und)
	if _, err := ExtractEgonet(p, 0, 100); err == nil {
		t.Fatal("expected error for directed product")
	}
}

func TestEgonetProductIDs(t *testing.T) {
	a := gen.Clique(4)
	p := MustProduct(a, a)
	ego, err := ExtractEgonet(p, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ego.ProductIDs[0] != 5 {
		t.Fatal("center not first")
	}
	// Every listed id must be 5 or a neighbor of 5.
	for _, pv := range ego.ProductIDs[1:] {
		if !p.HasEdge(5, pv) {
			t.Fatalf("non-neighbor %d in egonet", pv)
		}
	}
	// The local graph has one vertex per listed id.
	if ego.Local.NumVertices() != len(ego.ProductIDs) {
		t.Fatal("local graph size mismatch")
	}
}

func TestMaterializeTooLarge(t *testing.T) {
	a := gen.Clique(100)
	p := MustProduct(a, a)
	_, err := p.Materialize(10, 10)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}
