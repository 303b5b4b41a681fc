package kron

import (
	"slices"
	"testing"

	"kronvalid/internal/census"
	"kronvalid/internal/graph"
	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
)

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

// TestDirectedCensusThm4 validates t^(τ)_C = t^(τ)_A ⊗ diag(B³) for all
// 15 types against the direct census of the materialized product.
func TestDirectedCensusThm4(t *testing.T) {
	g := rng.New(21)
	for trial := 0; trial < 8; trial++ {
		a := randomDirected(g, 5+g.Intn(7), 3, 0.4)
		b := randomUndirected(g, 4+g.Intn(6), 3, g.Float64()) // B may have loops
		p := MustProduct(a, b)
		stats, err := DirectedCensus(p)
		if err != nil {
			t.Fatal(err)
		}
		c := materialize(t, p)
		direct := census.DirectedVertexCensus(c)
		for _, ty := range census.AllVertexTypes() {
			got := stats.Vertex[ty].Vector()
			if !sparse.EqualVec(got, direct.Counts[ty]) {
				t.Fatalf("trial %d type %v: Kronecker %v vs direct %v",
					trial, ty, got, direct.Counts[ty])
			}
		}
	}
}

// TestDirectedCensusThm5 validates Δ^(τ)_C = Δ^(τ)_A ⊗ (B ∘ B²).
func TestDirectedCensusThm5(t *testing.T) {
	g := rng.New(22)
	for trial := 0; trial < 8; trial++ {
		a := randomDirected(g, 4+g.Intn(6), 3, 0.4)
		b := randomUndirected(g, 4+g.Intn(5), 3, g.Float64())
		p := MustProduct(a, b)
		stats, err := DirectedCensus(p)
		if err != nil {
			t.Fatal(err)
		}
		c := materialize(t, p)
		direct := census.DirectedEdgeCensus(c)
		for _, ty := range census.AllEdgeTypes() {
			if !slices.Equal(stats.Edge[ty].Vector(), direct.Delta[ty]) {
				t.Fatalf("trial %d type %v: Kronecker census disagrees with direct", trial, ty)
			}
		}
	}
}

func TestDirectedCensusPreconditions(t *testing.T) {
	loopA := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 0}}, false)
	und := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, true)
	dir := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, false)
	if _, err := DirectedCensus(MustProduct(loopA, und)); err == nil {
		t.Error("accepted left factor with loops")
	}
	if _, err := DirectedCensus(MustProduct(dir, dir)); err == nil {
		t.Error("accepted directed right factor")
	}
}

func TestDirectedDegreeFormulas(t *testing.T) {
	g := rng.New(23)
	a := randomDirected(g, 7, 3, 0.5)
	b := randomUndirected(g, 6, 3, 0)
	p := MustProduct(a, b)
	c := materialize(t, p)

	wantRec := sparse.Adjacency(c.ReciprocalPart()).RowSums()
	wantOut := sparse.Adjacency(c.DirectedPart()).RowSums()
	wantIn := sparse.Adjacency(c.DirectedPart()).ColSums()

	dr, err := ReciprocalDegree(p)
	if err != nil {
		t.Fatal(err)
	}
	do, err := DirectedOutDegree(p)
	if err != nil {
		t.Fatal(err)
	}
	di, err := DirectedInDegree(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < p.NumVertices(); v++ {
		if dr.At(v) != wantRec[v] {
			t.Fatalf("reciprocal degree(%d) = %d, want %d", v, dr.At(v), wantRec[v])
		}
		if do.At(v) != wantOut[v] {
			t.Fatalf("directed out-degree(%d) = %d, want %d", v, do.At(v), wantOut[v])
		}
		if di.At(v) != wantIn[v] {
			t.Fatalf("directed in-degree(%d) = %d, want %d", v, di.At(v), wantIn[v])
		}
	}
}

// TestLabeledCensusThm6And7 validates the labeled product census against
// the direct census of the materialized, label-inheriting product.
func TestLabeledCensusThm6And7(t *testing.T) {
	g := rng.New(24)
	for trial := 0; trial < 6; trial++ {
		L := 2 + g.Intn(3)
		aPlain := randomUndirected(g, 5+g.Intn(6), 3.5, 0)
		labels := make([]int32, aPlain.NumVertices())
		for i := range labels {
			labels[i] = int32(g.Intn(L))
		}
		a := aPlain.WithLabels(labels, L)
		b := randomUndirected(g, 4+g.Intn(5), 3, g.Float64())
		p := MustProduct(a, b)
		stats, err := LabeledCensus(p)
		if err != nil {
			t.Fatal(err)
		}
		c := materialize(t, p) // carries inherited labels
		if !c.IsLabeled() {
			t.Fatal("materialized product lost labels")
		}
		directV := census.LabeledVertexCensus(c)
		for _, ty := range census.AllLabelVertexTypes(L) {
			got := stats.Vertex[ty].Vector()
			if !sparse.EqualVec(got, directV[ty]) {
				t.Fatalf("trial %d vertex type %v: formula disagrees with direct", trial, ty)
			}
		}
		directE := census.LabeledEdgeCensus(c)
		for _, ty := range census.AllLabelEdgeTypes(L) {
			if !slices.Equal(stats.Edge[ty].Vector(), directE[ty]) {
				t.Fatalf("trial %d edge type %v: formula disagrees with direct", trial, ty)
			}
		}
	}
}

func TestLabeledCensusPreconditions(t *testing.T) {
	und := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true)
	lab := und.WithLabels([]int32{0, 1, 0}, 2)
	if _, err := LabeledCensus(MustProduct(und, und)); err == nil {
		t.Error("accepted unlabeled left factor")
	}
	if _, err := LabeledCensus(MustProduct(lab.WithAllLoops(), und)); err == nil {
		t.Error("accepted labeled factor with loops")
	}
	dir := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, false)
	if _, err := LabeledCensus(MustProduct(lab, dir)); err == nil {
		t.Error("accepted directed right factor")
	}
}

func TestProductLabelInheritance(t *testing.T) {
	und := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true)
	lab := und.WithLabels([]int32{2, 0, 1}, 3)
	b := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, true)
	p := MustProduct(lab, b)
	for v := int64(0); v < p.NumVertices(); v++ {
		i := p.FactorsOf(v)[0]
		if p.Label(v) != lab.Label(i) {
			t.Fatalf("label(%d) = %d, want %d", v, p.Label(v), lab.Label(i))
		}
	}
}
