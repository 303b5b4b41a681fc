package kronvalid

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"kronvalid/internal/stream"
)

// kronPower materializes the k-fold Kronecker power of a small factor.
func kronPower(t *testing.T, f *Graph, k int) *Graph {
	t.Helper()
	p := f
	for i := 1; i < k; i++ {
		prod, err := NewProduct(p, f)
		if err != nil {
			t.Fatal(err)
		}
		p, err = prod.Materialize(1<<20, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestKroneckerViaRMATCrossCheck ties the deterministic Kronecker-power
// pipeline to the stochastic R-MAT model — the correspondence the paper
// builds R-MAT on. The 2-vertex initiator F with arcs (0,0), (0,1),
// (1,1) has k-fold power F^⊗k whose arcs are exactly the bit-dominance
// set {(u, v) : u &^ v == 0} (one initiator arc per bit position), 3^k
// arcs in all. An R-MAT spec with quadrant weights proportional to F —
// a = b = d = 1/3, c = 0 — draws every one of those arcs with equal
// probability 3^-k per edge sample, so the realized stream must
//
//  1. be supported exactly on the arcs of F^⊗k (minus self loops,
//     which the model drops), and
//  2. hit each popcount class of sources at its occupancy expectation:
//     a source u with popcount z dominates 2^(k-z) targets (one is the
//     loop), giving C(k, z)·(2^(k-z)-1) admissible non-loop arcs per
//     class, each present after m samples with probability
//     q = 1 - (1 - 3^-k)^m. Observed class counts must sit within 5σ
//     of the mean (occupancy indicators are negatively associated, so
//     the binomial σ bounds the true one).
func TestKroneckerViaRMATCrossCheck(t *testing.T) {
	const k = 9
	const m = 30000
	f := FromEdges(2, []Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 1}}, false)
	p := kronPower(t, f, k)

	n := int64(1) << k
	admissible := int64(1)
	for i := 0; i < k; i++ {
		admissible *= 3
	}
	if got := int64(p.NumVertices()); got != n {
		t.Fatalf("F^⊗%d has %d vertices, want %d", k, got, n)
	}
	if got := p.NumArcs(); got != admissible {
		t.Fatalf("F^⊗%d has %d arcs, want 3^%d = %d", k, got, k, admissible)
	}
	for u := int64(0); u < n; u++ {
		for _, v := range p.Neighbors(int32(u)) {
			if u&^int64(v) != 0 {
				t.Fatalf("power arc (%d, %d) violates bit dominance", u, v)
			}
		}
	}
	// Count equality + dominance of every arc ⇒ the arc set IS the
	// dominance set; in particular every vertex carries its self loop.

	spec := fmt.Sprintf("rmat:scale=%d,edges=%d,a=1,b=1,c=0,d=1,seed=19", k, m)
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	classObs := make([]int64, k+1)
	var arcs int64
	_, err = Stream(context.Background(), ModelSource(g, 4), SinkFunc(func(batch []stream.Arc) error {
		for _, a := range batch {
			if a.U&^a.V != 0 {
				return fmt.Errorf("rmat arc (%d, %d) outside the Kronecker support", a.U, a.V)
			}
			if a.U == a.V {
				return fmt.Errorf("rmat emitted self loop %d", a.U)
			}
			if !p.HasEdge(int32(a.U), int32(a.V)) {
				return fmt.Errorf("rmat arc (%d, %d) missing from F^⊗%d", a.U, a.V, k)
			}
			classObs[bits.OnesCount64(uint64(a.U))]++
			arcs++
		}
		return nil
	}), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if arcs == 0 {
		t.Fatal("empty rmat stream")
	}

	q := 1 - math.Pow(1-1/float64(admissible), m)
	for z := 0; z <= k; z++ {
		size := float64(binom(k, z)) * (math.Exp2(float64(k-z)) - 1)
		if size == 0 {
			if classObs[z] != 0 {
				t.Errorf("popcount class %d is empty yet observed %d arcs", z, classObs[z])
			}
			continue
		}
		mean := size * q
		sigma := math.Sqrt(size * q * (1 - q))
		if dev := math.Abs(float64(classObs[z]) - mean); dev > 5*sigma+1 {
			t.Errorf("popcount class %d: observed %d distinct arcs, expected %.1f ± %.1f (5σ)",
				z, classObs[z], mean, 5*sigma)
		}
	}
}

// binom returns C(n, r) for small n.
func binom(n, r int) int64 {
	c := int64(1)
	for i := 0; i < r; i++ {
		c = c * int64(n-i) / int64(i+1)
	}
	return c
}
