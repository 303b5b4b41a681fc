package graph

import (
	"sync"
	"sync/atomic"
	"testing"
)

// scanLoops counts self loops without the memo.
func scanLoops(g *Graph) int64 {
	var loops int64
	for v := range g.n {
		if g.HasEdge(int32(v), int32(v)) {
			loops++
		}
	}
	return loops
}

// TestNumLoopsMemo: the loop count is decided once per graph —
// concurrent first calls agree with a scan — Degree and HasAnyLoop read
// it, and a graph derived from a decided one counts its own loops.
func TestNumLoopsMemo(t *testing.T) {
	loopFree := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}, true)
	looped := FromEdges(4, []Edge{{0, 1}, {1, 1}, {2, 3}, {3, 3}}, true)
	for name, g := range map[string]*Graph{"loop-free": loopFree, "looped": looped} {
		want := scanLoops(g)
		var wg sync.WaitGroup
		got := make([]int64, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = g.NumLoops()
			}(i)
		}
		wg.Wait()
		for i, c := range got {
			if c != want {
				t.Errorf("%s: concurrent call %d counted %d loops, a scan %d", name, i, c, want)
			}
		}
		if g.HasAnyLoop() != (want > 0) {
			t.Errorf("%s: HasAnyLoop = %v with %d loops", name, g.HasAnyLoop(), want)
		}
		for v := range int32(g.n) {
			d := g.OutDegreeRaw(v)
			if g.HasEdge(v, v) {
				d--
			}
			if g.Degree(v) != d {
				t.Errorf("%s: Degree(%d) = %d, want %d", name, v, g.Degree(v), d)
			}
		}
	}
	// Both parents are decided now; each child must count its own.
	derived := map[string]func(g *Graph) *Graph{
		"WithAllLoops": (*Graph).WithAllLoops,
		"WithoutLoops": (*Graph).WithoutLoops,
		"WithLoopAt":   func(g *Graph) *Graph { return g.WithLoopAt(0) },
		"Clone":        (*Graph).Clone,
	}
	for name, f := range derived {
		for pname, parent := range map[string]*Graph{"loop-free": loopFree, "looped": looped} {
			child := f(parent)
			if got, want := child.NumLoops(), scanLoops(child); got != want {
				t.Errorf("%s of the %s graph: NumLoops = %d, a scan says %d", name, pname, got, want)
			}
		}
	}
}

// TestDerivedSlot: concurrent first calls run compute once and all see
// its value; later calls do not run it; a clone or transform starts with
// an empty slot.
func TestDerivedSlot(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}, true)
	var calls atomic.Int32
	compute := func() any {
		calls.Add(1)
		return new(int)
	}
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Derived(g, compute)
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Errorf("concurrent call %d got %p, call 0 %p", i, v, got[0])
		}
	}
	if Derived(g, compute) != got[0] || calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	labels := []int32{0, 1, 0, 1}
	for name, f := range map[string]func(*Graph) *Graph{
		"Clone":          (*Graph).Clone,
		"Transpose":      (*Graph).Transpose,
		"Undirected":     (*Graph).Undirected,
		"WithAllLoops":   (*Graph).WithAllLoops,
		"WithoutLoops":   (*Graph).WithoutLoops,
		"WithLoopAt":     func(g *Graph) *Graph { return g.WithLoopAt(1) },
		"WithLabels":     func(g *Graph) *Graph { return g.WithLabels(labels, 2) },
		"Unlabeled":      func(g *Graph) *Graph { return g.WithLabels(labels, 2).Unlabeled() },
		"ReciprocalPart": (*Graph).ReciprocalPart,
		"InducedSubgraph": func(g *Graph) *Graph {
			sub, _ := g.InducedSubgraph([]int32{0, 1, 2})
			return sub
		},
	} {
		if v := Derived(f(g), compute); v == got[0] {
			t.Errorf("%s: the child's slot holds its parent's value", name)
		}
	}
}

// TestFromSymmetricCSRRecordsVerdict: the verdict is stored, not scanned
// for, and the rows are still checked.
func TestFromSymmetricCSRRecordsVerdict(t *testing.T) {
	g := FromSymmetricCSR([]int64{0, 1, 2}, []int32{1, 0})
	if g.sym.Load() != symYes || !g.Equal(FromEdges(2, []Edge{{0, 1}}, true)) {
		t.Errorf("FromSymmetricCSR: verdict %d, graph %v", g.sym.Load(), g)
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSymmetricCSR accepted an unsorted row")
		}
	}()
	FromSymmetricCSR([]int64{0, 2, 3, 4}, []int32{2, 1, 0, 0})
}
