package kron

import (
	"runtime"
	"testing"
)

// factorStatsBytesRows budget, per arc and per vertex of the factor, the
// bytes ComputeFactorStats allocates (scratch included) and retains (the
// statistics it returns) on a fresh graph. A loop-free factor keeps t, Δ
// and diag(G³) = 2t: 8 bytes per arc and 16 per vertex, HadSquare being
// Δ's slice. A looped factor keeps G∘G² and the four per-edge and three
// per-vertex loop terms besides: 48 per arc and 40 per vertex. The
// triangle engine adds 4 bytes of scratch per arc (its rank-space rows
// and slot counts) and 36 per vertex, so a loop-free factor allocates
// 12 per arc and 52 per vertex, a looped one 52 and 76. Each budget
// leaves a little slack over those.
var factorStatsBytesRows = []struct {
	spec                    string
	allocArc, allocVertex   float64
	retainArc, retainVertex float64
}{
	{"web:n=16384,m=4,seed=1000", 12.5, 56, 8.5, 17},
	{"web:n=16384,m=4,seed=1000+loops", 53, 76, 48.5, 42},
}

// TestFactorStatsBytes is the factor-statistics memory gate: the least,
// over three fresh clones, of the bytes ComputeFactorStats allocates
// (runtime.MemStats.TotalAlloc) and of the live heap it adds once
// collected (HeapAlloc after a GC), against each row's budget.
func TestFactorStatsBytes(t *testing.T) {
	for _, row := range factorStatsBytesRows {
		g := mustFactor(t, row.spec)
		arcs, verts := float64(g.NumArcs()), float64(g.NumVertices())
		alloc, retain := ^uint64(0), ^uint64(0)
		for range 3 {
			c := g.Clone()
			var before, during, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			st := ComputeFactorStats(c)
			runtime.ReadMemStats(&during)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(st)
			alloc = min(alloc, during.TotalAlloc-before.TotalAlloc)
			retain = min(retain, after.HeapAlloc-before.HeapAlloc)
		}
		allocMax := uint64(row.allocArc*arcs + row.allocVertex*verts)
		retainMax := uint64(row.retainArc*arcs + row.retainVertex*verts)
		t.Logf("%s (%d arcs, %d vertices): allocates %d bytes (limit %d), retains %d (limit %d)",
			row.spec, g.NumArcs(), g.NumVertices(), alloc, allocMax, retain, retainMax)
		if alloc > allocMax {
			t.Errorf("%s: ComputeFactorStats allocates %d bytes, more than %d (%.2f per arc + %.2f per vertex)",
				row.spec, alloc, allocMax, row.allocArc, row.allocVertex)
		}
		if retain > retainMax {
			t.Errorf("%s: ComputeFactorStats retains %d bytes, more than %d (%.2f per arc + %.2f per vertex)",
				row.spec, retain, retainMax, row.retainArc, row.retainVertex)
		}
	}
}
