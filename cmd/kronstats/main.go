// Kronstats prints exact ground-truth statistics of a Kronecker product
// C = A ⊗ B, computed from the factors via the paper's formulas — without
// generating C.
//
// Usage:
//
//	kronstats -a 'web:n=4096,m=4,seed=42' -b 'web:n=4096,m=4,seed=42+loops'
//	kronstats -a ... -b ... -vertex 12345        # stats of one vertex
//	kronstats -a ... -b ... -json                # machine-readable summary
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kronvalid"
	"kronvalid/internal/gio"
	"kronvalid/internal/graph"
	"kronvalid/internal/kron"
	"kronvalid/internal/spec"
	"kronvalid/internal/triangle"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kronstats: ")
	aSpec := flag.String("a", "", "left factor specification (required)")
	bSpec := flag.String("b", "", "right factor specification (required unless -power > 0)")
	power := flag.Int("power", 0, "compute the k-th Kronecker power of -a instead of a binary product")
	vertex := flag.Int64("vertex", -1, "also print per-vertex stats for this product vertex")
	jsonOut := flag.Bool("json", false, "emit a JSON summary record")
	useCSR := flag.Bool("csr", false, "also build the product's CSR adjacency and cross-check it against the formulas")
	maxArcs := flag.Int64("maxarcs", 1<<28, "refuse to build the CSR beyond this arc count (-csr)")
	flag.Parse()

	if *power > 0 {
		if *aSpec == "" {
			log.Fatal("-power needs -a")
		}
		runPower(*aSpec, *power)
		return
	}
	if *aSpec == "" || *bSpec == "" {
		log.Fatal("both -a and -b are required")
	}
	a, err := spec.Parse(*aSpec)
	if err != nil {
		log.Fatal(err)
	}
	b, err := spec.Parse(*bSpec)
	if err != nil {
		log.Fatal(err)
	}
	p, err := kron.NewProduct(a, b)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	sa, sb, err := p.FactorStats()
	if err != nil {
		log.Fatal(err)
	}
	tc, err := kron.VertexParticipation(p)
	if err != nil {
		log.Fatal(err)
	}
	tau, err := kron.TriangleTotal(p)
	if err != nil {
		log.Fatal(err)
	}
	maxDeg, argmax := p.MaxDegree()
	elapsed := time.Since(start)

	if *jsonOut {
		if err := gio.WriteStats(os.Stdout, gio.GraphStats{
			Name:      fmt.Sprintf("(%s) ⊗ (%s)", *aSpec, *bSpec),
			Vertices:  p.NumVertices(),
			Edges:     p.NumArcs(),
			Loops:     p.NumLoops(),
			Triangles: tau,
			MaxDegree: maxDeg,
		}); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("factor A: %d vertices, %d arcs, %d loops, τ=%d (%d wedge checks)\n",
			a.NumVertices(), a.NumArcs(), a.NumLoops(), sa.Total, sa.WedgeChecks)
		fmt.Printf("factor B: %d vertices, %d arcs, %d loops, τ=%d (%d wedge checks)\n",
			b.NumVertices(), b.NumArcs(), b.NumLoops(), sb.Total, sb.WedgeChecks)
		fmt.Printf("product C = A⊗B:\n")
		fmt.Printf("  vertices   %d\n", p.NumVertices())
		fmt.Printf("  arcs       %d\n", p.NumArcs())
		fmt.Printf("  loops      %d\n", p.NumLoops())
		fmt.Printf("  triangles  %d (exact)\n", tau)
		fmt.Printf("  max degree %d (at vertex %d)\n", maxDeg, argmax)
		fmt.Printf("  ground truth computed in %v\n", elapsed)
	}

	if *vertex >= 0 {
		if *vertex >= p.NumVertices() {
			log.Fatalf("vertex %d out of range [0,%d)", *vertex, p.NumVertices())
		}
		i, k := p.Factors(*vertex)
		fmt.Printf("vertex %d = (A:%d, B:%d): degree %d, triangles %d\n",
			*vertex, i, k, p.Degree(*vertex), tc.At(*vertex))
	}

	if *useCSR {
		runCSR(p, *maxArcs, *jsonOut)
	}
}

// runCSR materializes the product adjacency through the parallel
// two-pass CSR builder and cross-checks every measured quantity against
// its Kronecker closed form — the paper's validation story applied to
// the ingestion subsystem itself. SIGINT/SIGTERM cancel the build.
func runCSR(p *kron.Product, maxArcs int64, jsonOut bool) {
	if p.NumArcs() > maxArcs {
		log.Fatalf("-csr: product has %d arcs, above -maxarcs %d", p.NumArcs(), maxArcs)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	start := time.Now()
	g, err := kronvalid.ToCSR(ctx, kronvalid.ProductSource(p, 0))
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)

	if g.NumArcs() != p.NumArcs() {
		log.Fatalf("-csr: CSR has %d arcs, formula says %d", g.NumArcs(), p.NumArcs())
	}
	maxOut, atOut := g.MaxOutDegree()
	if want := maxRaw(p.A) * maxRaw(p.B); maxOut != want {
		log.Fatalf("-csr: measured max out-degree %d, formula says %d", maxOut, want)
	}
	start = time.Now()
	tr := g.Transpose()
	transposeTime := time.Since(start)
	maxIn, atIn := tr.MaxOutDegree()
	if want := maxRawIn(p.A) * maxRawIn(p.B); maxIn != want {
		log.Fatalf("-csr: measured max in-degree %d, formula says %d", maxIn, want)
	}

	// With -json the stats record owns stdout; keep it parseable by
	// sending the human-readable CSR block to stderr.
	out := os.Stdout
	if jsonOut {
		out = os.Stderr
	}
	arcsPerSec := float64(g.NumArcs()) / buildTime.Seconds()
	fmt.Fprintf(out, "CSR adjacency (two-pass parallel build):\n")
	fmt.Fprintf(out, "  built in       %v (%.1f M arcs/s)\n", buildTime, arcsPerSec/1e6)
	fmt.Fprintf(out, "  arcs           %d (matches formula)\n", g.NumArcs())
	fmt.Fprintf(out, "  max out-degree %d at vertex %d (matches formula)\n", maxOut, atOut)
	fmt.Fprintf(out, "  max in-degree  %d at vertex %d (matches formula, transpose in %v)\n",
		maxIn, atIn, transposeTime)
	fmt.Fprintf(out, "  digest         %s\n", gio.CSRDigest(g))
}

// maxRaw returns the largest raw out-degree of a factor.
func maxRaw(g *graph.Graph) int64 {
	var best int64
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegreeRaw(int32(v)); d > best {
			best = d
		}
	}
	return best
}

// maxRawIn returns the largest raw in-degree of a factor.
func maxRawIn(g *graph.Graph) int64 {
	in := make([]int64, g.NumVertices())
	g.EachArc(func(_, v int32) bool { in[v]++; return true })
	var best int64
	for _, d := range in {
		if d > best {
			best = d
		}
	}
	return best
}

// runPower prints the statistics ladder for B, B⊗B, …, B^{⊗k}.
func runPower(aSpec string, k int) {
	b, err := spec.Parse(aSpec)
	if err != nil {
		log.Fatal(err)
	}
	tb := triangle.Count(b)
	fmt.Printf("factor: %d vertices, %d arcs, τ = %d\n", b.NumVertices(), b.NumArcs(), tb.Total)
	fmt.Printf("%-3s %20s %20s %24s\n", "k", "vertices", "arcs", "triangles (exact)")
	for j := 1; j <= k; j++ {
		p, err := kron.KroneckerPower(b, j)
		if err != nil {
			log.Fatalf("power %d: %v", j, err)
		}
		tau, err := kron.MultiTriangleTotal(p)
		if err != nil {
			log.Fatalf("power %d: %v", j, err)
		}
		fmt.Printf("%-3d %20d %20d %24d\n", j, p.NumVertices(), p.NumArcs(), tau)
	}
}
