// Validate cross-checks every paper formula for a Kronecker product
// against structure-oblivious computation. In full mode (default) the
// product is materialized and every statistic recomputed directly; in
// sampled mode (-sample) arbitrary-scale products are spot-checked by
// egonet extraction and per-edge recounts. Exit status is nonzero on any
// mismatch, and when no check could run at all.
//
// Usage:
//
//	validate -a 'er:n=20,p=0.3,seed=1' -b 'pa1:n=12,seed=2'
//	validate -a 'web:n=65536,m=3,seed=1' -b 'web:n=65536,m=3,seed=2' -sample
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"kronvalid/internal/kron"
	"kronvalid/internal/spec"
	"kronvalid/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")
	aSpec := flag.String("a", "er:n=12,p=0.4,seed=1", "left factor specification")
	bSpec := flag.String("b", "pa1:n=10,seed=2", "right factor specification")
	maxVerts := flag.Int64("max-vertices", 4000, "materialization vertex limit (full mode)")
	maxArcs := flag.Int64("max-arcs", 4_000_000, "materialization arc limit (full mode)")
	sample := flag.Bool("sample", false, "sampled validation (for products too large to materialize)")
	vertexSamples := flag.Int("vertex-samples", 64, "egonet spot checks in sampled mode")
	edgeSamples := flag.Int("edge-samples", 64, "edge spot checks in sampled mode")
	maxDegree := flag.Int64("max-degree", 1<<20, "degree cap for sampled expansion")
	seed := flag.Uint64("seed", 1, "sampling seed")
	flag.Parse()

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

	mode := "full"
	var report *verify.Report
	if *sample {
		mode = "sampled"
		report, err = verify.Sampled(p, *vertexSamples, *edgeSamples, *maxDegree, *seed)
	} else {
		report, err = verify.Full(p, *maxVerts, *maxArcs)
	}
	if err != nil {
		log.Fatalf("%v (hint: use -sample for large products)", err)
	}

	fmt.Printf("validating C = (%s) ⊗ (%s): %d vertices, %d arcs [%s mode]\n\n",
		*aSpec, *bSpec, p.NumVertices(), p.NumArcs(), mode)
	if p.IsSymmetric() {
		tau, err := kron.TriangleTotal(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  closed-form τ(C) = %d\n\n", tau)
	}
	ran := false
	for _, c := range report.Checks {
		ran = ran || c.Ran
		switch {
		case !c.Ran:
			fmt.Printf("  %-46s skipped: %s\n", c.Name, c.Skipped)
		case c.Passed:
			fmt.Printf("  %-46s ok\n", c.Name)
		default:
			fmt.Printf("  %-46s FAIL\n", c.Name)
		}
	}
	if !ran {
		fmt.Println("\nFAILED: no check ran")
		os.Exit(1)
	}
	if !report.AllPassed() {
		fmt.Printf("\nFAILED: %v\n", report.Failures())
		os.Exit(1)
	}
	fmt.Println("\nall formulas validated ✓")
}
