package kron_test

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"kronvalid/internal/gen"
	"kronvalid/internal/graph"
	"kronvalid/internal/kron"
)

// TestFactorStatsMemoSharedWithProducts: ComputeFactorStats and every
// product over a graph (A ⊗ B, B ⊗ A, A ⊗ A) return one object, whichever
// is asked first.
func TestFactorStatsMemoSharedWithProducts(t *testing.T) {
	a := gen.WebGraph(300, 3, 0.6, 1)
	b := gen.WebGraph(200, 3, 0.6, 2).WithAllLoops()
	before := kron.ComputeFactorStats(a)
	p := kron.MustProduct(a, b)
	stats, err := p.FactorStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats[0] != before || kron.ComputeFactorStats(a) != before {
		t.Error("A: ComputeFactorStats before and after NewProduct and p.FactorStats()[0] differ")
	}
	if kron.ComputeFactorStats(b) != stats[1] {
		t.Error("B: ComputeFactorStats after p.FactorStats() returned another object")
	}
	other, err := kron.MustProduct(b, a).FactorStats()
	if err != nil || other[0] != stats[1] || other[1] != before {
		t.Errorf("B ⊗ A: statistics %v, %v; want those of A ⊗ B swapped", other, err)
	}
	sq, err := kron.MustProduct(a, a).FactorStats()
	if err != nil || sq[0] != before || sq[1] != before {
		t.Errorf("A ⊗ A: statistics %v, %v; want A's object twice", sq, err)
	}
	if before.G != a || stats[1].G != b {
		t.Error("statistics name another graph")
	}
}

// TestFactorStatsConcurrentFirstUse: goroutines that ask for a fresh
// graph's statistics at once, directly and through products, all get
// the one object computed.
func TestFactorStatsConcurrentFirstUse(t *testing.T) {
	g := gen.WebGraph(2000, 4, 0.7, 4)
	got := make([]*kron.FactorTriangleStats, 8)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			if i%2 == 0 {
				got[i] = kron.ComputeFactorStats(g)
				return
			}
			stats, err := kron.MustProduct(g, g).FactorStats()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = stats[1]
		}(i)
	}
	start.Done()
	wg.Wait()
	for i, s := range got {
		if s != got[0] {
			t.Errorf("goroutine %d got another statistics object", i)
		}
	}
}

// TestFactorStatsTransformsStartEmpty: a clone or transform of a counted
// graph is counted afresh, for its own arcs.
func TestFactorStatsTransformsStartEmpty(t *testing.T) {
	a := gen.WebGraph(300, 3, 0.6, 5)
	sa := kron.ComputeFactorStats(a)
	labels := make([]int32, a.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	for name, f := range map[string]func(*graph.Graph) *graph.Graph{
		"Clone":        (*graph.Graph).Clone,
		"WithLabels":   func(g *graph.Graph) *graph.Graph { return g.WithLabels(labels, 3) },
		"WithAllLoops": (*graph.Graph).WithAllLoops,
		"WithLoopAt":   func(g *graph.Graph) *graph.Graph { return g.WithLoopAt(7) },
		"WithoutLoops": (*graph.Graph).WithoutLoops,
		"Transpose":    (*graph.Graph).Transpose,
	} {
		child := f(a)
		sc := kron.ComputeFactorStats(child)
		if sc == sa || sc.G != child {
			t.Errorf("%s: the child reads its parent's statistics", name)
		}
		if sc.Total != sa.Total {
			t.Errorf("%s: τ = %d, the parent's %d", name, sc.Total, sa.Total)
		}
	}
}

// countedFactor returns a weak pointer to the statistics of a graph that
// is unreachable once it returns, after a product over it has read them.
func countedFactor(t *testing.T) weak.Pointer[kron.FactorTriangleStats] {
	g := gen.WebGraph(2000, 4, 0.7, 6)
	if _, err := kron.TriangleTotal(kron.MustProduct(g, g)); err != nil {
		t.Fatal(err)
	}
	return weak.Make(kron.ComputeFactorStats(g))
}

// TestFactorStatsDieWithGraph: the memo lives exactly as long as its
// graph, so a collection frees the statistics of an unreachable graph.
// A memo keyed by graph outside it (a package-level map) fails.
func TestFactorStatsDieWithGraph(t *testing.T) {
	w := countedFactor(t)
	runtime.GC()
	if w.Value() != nil {
		t.Error("the statistics of an unreachable graph are still reachable")
	}
}
