// Kronstats prints exact ground-truth statistics of a Kronecker product
// C = A ⊗ B (or of any number of factors), computed from the factors via
// the paper's formulas — without generating C.
//
// Usage:
//
//	kronstats -model 'kron(a=web:n=4096,m=4,seed=42;b=web:n=4096,m=4,seed=42+loops)'
//	kronstats -model 'kron(a=kron(a=clique:n=5;b=clique:n=5);b=clique:n=5)'  # K_5 ⊗ K_5 ⊗ K_5
//	kronstats -model ... -vertex 12345        # every vertex statistic at one vertex
//	kronstats -model ... -json                # machine-readable summary
//
// -model is a product spec as gengen spells it (kronvalid.ParseSource):
// kron(a=<factor>;b=<factor>), where a factor may itself be a kron(…).
// The factors are lettered A, B, C, … from left to right. With -json,
// stdout holds only the JSON record, whose name is the product's spec
// and rebuilds it; every other line goes to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"kronvalid"
	"kronvalid/internal/gio"
	"kronvalid/internal/kron"
	"kronvalid/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kronstats: ")
	modelSpec := flag.String("model", "", "product spec: kron(a=<factor>;b=<factor>), a factor may itself be a kron(…) (required)")
	vertex := flag.Int64("vertex", -1, "also print every vertex statistic that applies at this product vertex (-1: none)")
	jsonOut := flag.Bool("json", false, "emit a JSON summary record")
	useCSR := flag.Bool("csr", false, "also build the product's CSR adjacency and cross-check it against the formulas")
	maxArcs := flag.Int64("maxarcs", 1<<28, "refuse to build the CSR beyond this arc count (-csr)")
	flag.Parse()
	if *vertex < -1 {
		log.Fatalf("-vertex %d: want a product vertex, or -1 for none", *vertex)
	}
	if *modelSpec == "" {
		log.Fatal("-model is required")
	}
	factors, name, err := spec.ParseKron(*modelSpec)
	if err != nil {
		log.Fatal(err)
	}
	p, err := kron.NewProduct(factors...)
	if err != nil {
		log.Fatal(err)
	}
	// Factors are lettered A, B, …, Z, then F26, F27, ….
	letters := make([]string, len(factors))
	for i := range letters {
		letters[i] = fmt.Sprintf("F%d", i)
		if i < 26 {
			letters[i] = string(rune('A' + i))
		}
	}

	start := time.Now()
	stats, err := p.FactorStats()
	if err != nil {
		log.Fatal(err)
	}
	tau, err := kron.TriangleTotal(p)
	if err != nil {
		log.Fatal(err)
	}
	maxDeg, argmax := p.MaxDegree()
	elapsed := time.Since(start)

	// With -json the stats record owns stdout; every human-readable line
	// goes to stderr.
	out := os.Stdout
	if *jsonOut {
		out = os.Stderr
		if err := gio.WriteStats(os.Stdout, gio.GraphStats{
			Name:      name,
			Vertices:  p.NumVertices(),
			Edges:     p.NumArcs(),
			Loops:     p.NumLoops(),
			Triangles: tau,
			MaxDegree: maxDeg,
		}); err != nil {
			log.Fatal(err)
		}
	} else {
		for i, f := range factors {
			fmt.Printf("factor %s: %d vertices, %d arcs, %d loops, τ=%d (%d wedge checks)\n",
				letters[i], f.NumVertices(), f.NumArcs(), f.NumLoops(), stats[i].Total, stats[i].WedgeChecks)
		}
		fmt.Printf("product C = %s:\n", strings.Join(letters, "⊗"))
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
		digits := make([]string, len(factors))
		for i, d := range p.FactorsOf(*vertex) {
			digits[i] = fmt.Sprintf("%s:%d", letters[i], d)
		}
		fmt.Fprintf(out, "vertex %d = (%s):\n", *vertex, strings.Join(digits, ", "))
		for _, col := range kron.Columns(p) {
			if col.Scope == kron.VertexScope && col.Skip == "" {
				fmt.Fprintf(out, "  %-36s %d\n", strings.TrimSpace(col.Name+" "+col.Type), col.Eval.(*kron.KronVecSum).At(*vertex))
			}
		}
	}

	if *useCSR {
		runCSR(p, *maxArcs, out)
	}
}

// runCSR materializes the product adjacency through the parallel
// two-pass CSR builder and cross-checks every measured quantity against
// its Kronecker closed form — the paper's validation story applied to
// the ingestion subsystem itself, writing its report to out.
// SIGINT/SIGTERM cancel the build.
func runCSR(p *kron.Product, maxArcs int64, out *os.File) {
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
	if want := maxOf(kron.OutDegrees(p)); maxOut != want {
		log.Fatalf("-csr: measured max out-degree %d, formula says %d", maxOut, want)
	}
	start = time.Now()
	tr := g.Transpose()
	transposeTime := time.Since(start)
	maxIn, atIn := tr.MaxOutDegree()
	if want := maxOf(kron.InDegrees(p)); maxIn != want {
		log.Fatalf("-csr: measured max in-degree %d, formula says %d", maxIn, want)
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

// maxOf returns the largest entry of a one-term statistic ⊗_i u_i of
// nonnegative factor vectors: Π_i max u_i.
func maxOf(s *kron.KronVecSum) int64 {
	prod := int64(1)
	for _, u := range s.Terms[0].Vecs {
		prod *= slices.Max(u)
	}
	return prod
}
