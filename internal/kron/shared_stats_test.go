package kron_test

import (
	"testing"

	"kronvalid/internal/gen"
	"kronvalid/internal/kron"
	"kronvalid/internal/verify"
)

// TestClosedFormsShareFactorStats: every closed form of a product reads
// the one statistics object of each factor, so what two calls return
// aliases the same storage, and a factor used twice is counted once.
func TestClosedFormsShareFactorStats(t *testing.T) {
	a := gen.WebGraph(300, 3, 0.6, 1).WithLoopAt(7)
	b := gen.WebGraph(200, 3, 0.6, 2).WithAllLoops()
	p := kron.MustProduct(a, b)

	if _, err := kron.TriangleTotal(p); err != nil {
		t.Fatal(err)
	}
	tc1, err := kron.VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	dc1, err := kron.EdgeParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kron.GlobalClustering(p); err != nil {
		t.Fatal(err)
	}
	if report, err := verify.Sampled(p, 8, 8, 1<<20, 1); err != nil || !report.AllPassed() {
		t.Fatalf("verify.Sampled: %v, %v", report, err)
	}
	tc2, err := kron.VertexParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	dc2, err := kron.EdgeParticipation(p)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb, err := p.FactorStats()
	if err != nil {
		t.Fatal(err)
	}

	if len(tc1.Terms) != 4 || len(dc1.Terms) != 5 {
		t.Fatalf("loops in both factors: %d vertex terms, %d edge terms, want 4 and 5", len(tc1.Terms), len(dc1.Terms))
	}
	for i := range tc1.Terms {
		if &tc1.Terms[i].U[0] != &tc2.Terms[i].U[0] || &tc1.Terms[i].V[0] != &tc2.Terms[i].V[0] {
			t.Errorf("vertex term %d: two calls returned different storage", i)
		}
	}
	for i := range dc1.Terms {
		if dc1.Terms[i].M != dc2.Terms[i].M || dc1.Terms[i].N != dc2.Terms[i].N {
			t.Errorf("edge term %d: two calls returned different matrices", i)
		}
	}
	if &tc1.Terms[0].U[0] != &sa.DiagCube[0] || &tc1.Terms[0].V[0] != &sb.DiagCube[0] {
		t.Error("vertex term 0 is not the factors' DiagCube")
	}
	if dc1.Terms[0].M != sa.HadSquare || dc1.Terms[0].N != sb.HadSquare {
		t.Error("edge term 0 is not the factors' HadSquare")
	}

	sq := kron.MustProduct(a, a)
	if s1, s2, err := sq.FactorStats(); err != nil || s1 != s2 {
		t.Errorf("A ⊗ A: statistics %p and %p, %v; want one object", s1, s2, err)
	}
	pow, err := kron.KroneckerPower(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kron.MultiTriangleTotal(pow); err != nil {
		t.Fatal(err)
	}
	stats, err := pow.FactorStatsForTest()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 || stats[0] != stats[1] || stats[1] != stats[2] {
		t.Errorf("B^⊗3: statistics %v, want one object three times", stats)
	}
}
