package graph

import (
	"sync"
	"testing"

	"kronvalid/internal/rng"
	"kronvalid/internal/sparse"
)

// triangleGraph is the 3-cycle (a single undirected triangle).
func triangleGraph() *Graph {
	return FromEdges(3, []Edge{{0, 1}, {1, 2}, {0, 2}}, true)
}

func TestFromEdgesBasics(t *testing.T) {
	g := triangleGraph()
	if g.NumVertices() != 3 || g.NumArcs() != 6 {
		t.Fatalf("triangle: n=%d arcs=%d", g.NumVertices(), g.NumArcs())
	}
	if !g.IsSymmetric() {
		t.Fatal("triangle not symmetric")
	}
	if g.NumEdgesUndirected() != 3 {
		t.Fatalf("triangle edges = %d", g.NumEdgesUndirected())
	}
	for v := int32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 0) {
		t.Error("HasEdge wrong")
	}
}

func TestFromEdgesDeduplicates(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}, {0, 1}, {1, 0}}, false)
	if g.NumArcs() != 2 {
		t.Fatalf("arcs = %d, want 2", g.NumArcs())
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromEdges(2, []Edge{{0, 2}}, false)
}

func TestSelfLoopHandling(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 0}, {0, 1}}, true)
	if g.NumLoops() != 1 || !g.LoopAt(0) || g.LoopAt(1) {
		t.Fatal("loop bookkeeping wrong")
	}
	if g.Degree(0) != 1 { // paper's degree excludes the loop
		t.Errorf("Degree(0) = %d, want 1", g.Degree(0))
	}
	if g.OutDegreeRaw(0) != 2 {
		t.Errorf("OutDegreeRaw(0) = %d, want 2", g.OutDegreeRaw(0))
	}
	if g.NumEdgesUndirected() != 2 { // loop + one edge
		t.Errorf("edges = %d, want 2", g.NumEdgesUndirected())
	}
	if !g.HasAnyLoop() {
		t.Error("HasAnyLoop false")
	}
}

func TestWithoutWithLoops(t *testing.T) {
	g := triangleGraph()
	gl := g.WithAllLoops()
	if gl.NumLoops() != 3 {
		t.Fatalf("WithAllLoops loops = %d", gl.NumLoops())
	}
	if !gl.IsSymmetric() {
		t.Fatal("WithAllLoops broke symmetry")
	}
	back := gl.WithoutLoops()
	if !back.Equal(g) {
		t.Fatal("WithoutLoops(WithAllLoops(g)) != g")
	}
	// Idempotence: adding loops twice is the same as once.
	if !gl.WithAllLoops().Equal(gl) {
		t.Fatal("WithAllLoops not idempotent")
	}
	// Degrees unchanged by loop insertion (paper's degree excludes loops).
	if !sparse.EqualVec(g.Degrees(), gl.Degrees()) {
		t.Fatal("Degrees changed by adding loops")
	}
}

func TestSparseRoundTrip(t *testing.T) {
	g := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		n := 1 + g.Intn(30)
		var edges []Edge
		for i := 0; i < n*2; i++ {
			edges = append(edges, Edge{int32(g.Intn(n)), int32(g.Intn(n))})
		}
		gr := FromEdges(n, edges, trial%2 == 0)
		back := FromSparse(gr.ToSparse())
		if !gr.Equal(back) {
			t.Fatal("sparse round trip failed")
		}
	}
}

func TestTranspose(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {3, 0}, {2, 2}}, false)
	gt := g.Transpose()
	if !gt.HasEdge(1, 0) || !gt.HasEdge(2, 1) || !gt.HasEdge(0, 3) || !gt.HasEdge(2, 2) {
		t.Fatal("Transpose edges wrong")
	}
	if gt.NumArcs() != g.NumArcs() {
		t.Fatal("Transpose changed arc count")
	}
	if !g.Transpose().Transpose().Equal(g) {
		t.Fatal("double transpose != original")
	}
	// Matches sparse transpose.
	if !gt.ToSparse().Equal(g.ToSparse().T()) {
		t.Fatal("Transpose disagrees with sparse T")
	}
}

func TestReciprocalDirectedDecomposition(t *testing.T) {
	// 0<->1 reciprocal, 1->2 directed, 2->0 directed, loop at 3.
	g := FromEdges(4, []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 0}, {3, 3}}, false)
	ar := g.ReciprocalPart()
	ad := g.DirectedPart()
	if !ar.HasEdge(0, 1) || !ar.HasEdge(1, 0) || !ar.HasEdge(3, 3) {
		t.Error("reciprocal part wrong")
	}
	if ar.NumArcs() != 3 {
		t.Errorf("reciprocal arcs = %d, want 3", ar.NumArcs())
	}
	if !ad.HasEdge(1, 2) || !ad.HasEdge(2, 0) || ad.NumArcs() != 2 {
		t.Error("directed part wrong")
	}
	// A = A_r + A_d as matrices.
	sum := ar.ToSparse().Add(ad.ToSparse())
	if !sum.Equal(g.ToSparse()) {
		t.Error("A_r + A_d != A")
	}
	// A_r is symmetric; A_d has no reciprocal pair.
	if !ar.IsSymmetric() {
		t.Error("A_r not symmetric")
	}
	if !ad.ReciprocalPart().ToSparse().IsZero() {
		t.Error("A_d contains reciprocal arcs")
	}
	// Matches the matrix definition A_r = A^t ∘ A.
	m := g.ToSparse()
	if !ar.ToSparse().Equal(m.T().Hadamard(m)) {
		t.Error("A_r != A^t ∘ A")
	}
}

func TestUndirected(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}}, false)
	u := g.Undirected()
	if !u.IsSymmetric() || u.NumArcs() != 4 {
		t.Fatalf("Undirected wrong: %v", u)
	}
	// A_u = A + A_d^t (Def. 9).
	m := g.ToSparse()
	au := m.Add(g.DirectedPart().ToSparse().T())
	if !u.ToSparse().Equal(au) {
		t.Error("A_u != A + A_d^t")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}, true)
	sub, ids := g.InducedSubgraph([]int32{0, 1, 2})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub n = %d", sub.NumVertices())
	}
	if len(ids) != 3 || ids[0] != 0 {
		t.Fatalf("ids = %v", ids)
	}
	// Triangle 0-1-2 should survive intact.
	if sub.NumEdgesUndirected() != 3 {
		t.Errorf("sub edges = %d, want 3", sub.NumEdgesUndirected())
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	triangleGraph().InducedSubgraph([]int32{0, 0})
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}}, true)
	comp, n := g.ConnectedComponents()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("3,4 should share a separate component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("5 should be isolated in its own component")
	}
}

func TestConnectedComponentsDirectedTreatedUndirected(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {2, 1}}, false)
	_, n := g.ConnectedComponents()
	if n != 1 {
		t.Fatalf("weak components = %d, want 1", n)
	}
}

func TestLabels(t *testing.T) {
	g := triangleGraph().WithLabels([]int32{0, 1, 2}, 3)
	if !g.IsLabeled() || g.NumLabels() != 3 {
		t.Fatal("labeling lost")
	}
	if g.Label(1) != 1 {
		t.Errorf("Label(1) = %d", g.Label(1))
	}
	counts := g.LabelCounts()
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("LabelCounts = %v", counts)
	}
	// Filters are orthogonal diagonal projections summing to I.
	sum := g.LabelFilter(0).Add(g.LabelFilter(1)).Add(g.LabelFilter(2))
	if !sum.Equal(sparse.Identity(3)) {
		t.Error("sum of label filters != I")
	}
	if g.LabelFilter(0).Mul(g.LabelFilter(1)).NNZ() != 0 {
		t.Error("filters not orthogonal")
	}
	// Labels survive transforms.
	if !g.WithAllLoops().IsLabeled() || !g.Transpose().IsLabeled() {
		t.Error("labels dropped by transform")
	}
	if g.Unlabeled().IsLabeled() {
		t.Error("Unlabeled kept labels")
	}
}

func TestWithLabelsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad label")
		}
	}()
	triangleGraph().WithLabels([]int32{0, 1, 5}, 3)
}

func TestEachEdgeUndirected(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 2}}, true)
	var got []Edge
	g.EachEdgeUndirected(func(u, v int32) bool {
		got = append(got, Edge{u, v})
		return true
	})
	want := []Edge{{0, 1}, {1, 2}, {2, 2}}
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}
}

func TestWithLoopAt(t *testing.T) {
	g := triangleGraph()
	gl := g.WithLoopAt(1)
	if !gl.LoopAt(1) || gl.NumLoops() != 1 {
		t.Fatal("loop not added")
	}
	if gl.Degree(1) != g.Degree(1) {
		t.Error("loop changed paper-degree")
	}
	if !gl.IsSymmetric() {
		t.Error("loop broke symmetry")
	}
	// Idempotent.
	if !gl.WithLoopAt(1).Equal(gl) {
		t.Error("WithLoopAt not idempotent")
	}
	// Labels preserved.
	lab := g.WithLabels([]int32{0, 1, 2}, 3).WithLoopAt(0)
	if !lab.IsLabeled() || lab.Label(2) != 2 {
		t.Error("labels lost")
	}
}

// scanSymmetric is IsSymmetric without the memo: the reference the memo
// is checked against.
func scanSymmetric(g *Graph) bool {
	sym := true
	g.EachArc(func(u, v int32) bool {
		sym = g.HasEdge(v, u)
		return sym
	})
	return sym
}

// TestIsSymmetricMemo: the verdict is decided once per graph — concurrent
// first calls agree with a fresh scan and with each other — and a graph
// derived from a decided one answers for its own arcs, not its parent's.
func TestIsSymmetricMemo(t *testing.T) {
	directed := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 2}}, false)
	undirected := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}, true)
	for name, g := range map[string]*Graph{"directed": directed, "undirected": undirected} {
		want := scanSymmetric(g)
		var wg sync.WaitGroup
		got := make([]bool, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = g.IsSymmetric()
			}(i)
		}
		wg.Wait()
		for i, sym := range got {
			if sym != want {
				t.Errorf("%s: concurrent call %d said %v, a scan says %v", name, i, sym, want)
			}
		}
		if g.IsSymmetric() != want {
			t.Errorf("%s: memoized answer differs from the scan", name)
		}
	}
	// Both parents are decided now. Each transform is checked from both,
	// so a verdict copied from the parent is wrong for one of them.
	labels := []int32{0, 1, 0, 1}
	derived := map[string]func(g *Graph) *Graph{
		"Transpose":    (*Graph).Transpose,
		"Undirected":   (*Graph).Undirected,
		"WithLoopAt":   func(g *Graph) *Graph { return g.WithLoopAt(1) },
		"WithLabels":   func(g *Graph) *Graph { return g.WithLabels(labels, 2) },
		"DirectedPart": (*Graph).DirectedPart,
		"Clone":        (*Graph).Clone,
	}
	for name, f := range derived {
		for pname, parent := range map[string]*Graph{"directed": directed, "undirected": undirected} {
			child := f(parent)
			if got, want := child.IsSymmetric(), scanSymmetric(child); got != want {
				t.Errorf("%s of the %s graph: IsSymmetric = %v, a scan says %v", name, pname, got, want)
			}
		}
	}
	if !directed.Undirected().IsSymmetric() || directed.IsSymmetric() {
		t.Error("Undirected() of a directed graph must be symmetric and leave its parent directed")
	}
}
