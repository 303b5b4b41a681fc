// Kroneckerpower demonstrates the k-fold construction the paper's
// companion extreme-scale generator uses: repeated Kronecker powers
// C = B ⊗ B ⊗ … ⊗ B of one small scale-free factor. Exact triangle
// ground truth follows τ(B^{⊗k}) = 6^{k-1}·τ(B)^k for loop-free B, and
// per-vertex statistics evaluate in O(k) at any of the Π n_i vertices.
package main

import (
	"flag"
	"fmt"
	"log"

	"kronvalid"
)

func main() {
	n := flag.Int("n", 512, "factor vertices")
	kMax := flag.Int("k", 4, "maximum Kronecker power")
	seed := flag.Uint64("seed", 31, "generator seed")
	flag.Parse()

	b := kronvalid.WebGraph(*n, 3, 0.75, *seed)
	tb := kronvalid.CountTriangles(b).Total
	fmt.Printf("factor B: %d vertices, %d edges, τ(B) = %d\n\n",
		b.NumVertices(), b.NumEdgesUndirected(), tb)

	fmt.Printf("%-4s %22s %22s %26s\n", "k", "vertices", "arcs", "triangles (exact)")
	for k := 1; k <= *kMax; k++ {
		p, err := kronvalid.KroneckerPower(b, k)
		if err != nil {
			fmt.Printf("%-4d stopped: %v\n", k, err)
			break
		}
		tau, err := kronvalid.TriangleTotal(p)
		if err != nil {
			fmt.Printf("%-4d triangles overflow int64: %v\n", k, err)
			break
		}
		fmt.Printf("%-4d %22d %22d %26d\n", k, p.NumVertices(), p.NumArcs(), tau)
	}

	// Per-vertex ground truth at an arbitrary vertex of the largest power.
	p, err := kronvalid.KroneckerPower(b, *kMax)
	if err != nil {
		log.Fatal(err)
	}
	t, err := kronvalid.VertexParticipation(p)
	if err != nil {
		log.Fatal(err)
	}
	v := p.NumVertices() / 3
	fmt.Printf("\nvertex %d of B^{⊗%d}: factors %v, degree %d, exact triangles %d\n",
		v, *kMax, p.FactorsOf(v), p.Degree(v), t.At(v))

	// Spot-validate the smallest nontrivial power explicitly.
	p2, err := kronvalid.KroneckerPower(b, 2)
	if err != nil {
		log.Fatal(err)
	}
	delta, err := kronvalid.EdgeParticipation(p2)
	if err != nil {
		log.Fatal(err)
	}
	var eu, ev int64 = -1, -1
	p2.EachArc(func(u, v int64) bool { eu, ev = u, v; return false })
	fmt.Printf("first arc of B⊗B: (%d,%d) participates in %d triangles (exact)\n",
		eu, ev, delta.At(eu, ev))
}
