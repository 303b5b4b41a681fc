// Gengen streams or shards the edge list of any registered random graph
// model (Erdős–Rényi, G(n,m), R-MAT, Chung–Lu, random geometric 2D/3D,
// Barabási–Albert, random hyperbolic, 2D/3D lattices with optional
// wraparound) through the unified Source pipeline: randomness lives
// in cells derived from (seed, cell id) — pair-range chunks, geometric
// grid cells, or per-edge hash positions — so output is bitwise
// identical for any worker count, even for the models with cross-chunk
// dependence (rgg regenerates neighbor cells, ba retraces per-edge
// dependency chains). The model-agnostic counterpart of krongen.
// Interrupting a long generation (SIGINT/SIGTERM) cancels it cleanly:
// sharded output directories are left without a manifest.json, the
// marker readers require.
//
// Usage:
//
//	gengen -model 'er:n=100000,p=0.001,seed=42' > edges.tsv
//	gengen -model 'rmat:scale=16,seed=7' -shards 8 -out dir/       # shard files + manifest.json
//	gengen -model 'gnm:n=100000,m=1000000' -shards 8 -out dir/ -binary
//	gengen -model 'rgg2d:n=100000,r=0.005' -shards 8 -out dir/     # spatial, cell-grid sharded
//	gengen -model 'rhg:n=100000,d=8,gamma=2.9' -shards 8 -out dir/ # hyperbolic, band/cell sharded
//	gengen -model 'grid2d:x=1000,y=1000,wrap=true' > torus.tsv     # full lattice, exact counts
//	gengen -model 'ba(n=100000;d=4)' -shards 8 -out dir/           # KaGen-style spec alias
//	gengen -model 'chunglu:n=100000,dmax=300' -csr graph.csr       # two-pass parallel CSR build
//	gengen -model 'er:n=100000,p=0.001' -count                     # sizes only
//	gengen -model 'er:n=100000,p=0.001' -digest                    # stream digest only
//	gengen -kinds                                                  # list registered models (sorted)
//
// Spec grammar: kind:key=value,key=value,… (or kind(key=value;…)).
// Every model takes seed (default 1) and chunks (the enumeration
// granularity, default 64; part of the stream identity for er/gnm/
// rmat/chunglu/grid2d/grid3d, grouping-only for rgg2d/rgg3d/ba/rhg).
// See MODELS.md and the package documentation of internal/model for
// per-model parameters and sharding schemes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"kronvalid"
	"kronvalid/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gengen: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	modelSpec := flag.String("model", "", "model specification (required; see -kinds)")
	shards := flag.Int("shards", 1, "number of workers / shard files")
	csrPath := flag.String("csr", "", "build CSR with the two-pass parallel builder and write it here (KRONCSR1)")
	countOnly := flag.Bool("count", false, "print sizes and exit without generating")
	listKinds := flag.Bool("kinds", false, "list registered model kinds and exit")
	out := cliutil.RegisterOutputFlags()
	prof := cliutil.ProfileFlags()
	flag.Parse()

	// ModelKinds is sorted, so new kinds surface deterministically in
	// help text, error messages and CI logs; sort again so no future
	// registry change can silently reorder them.
	kinds := kronvalid.ModelKinds()
	sort.Strings(kinds)
	if *listKinds {
		fmt.Println(strings.Join(kinds, "\n"))
		return nil
	}
	if *modelSpec == "" {
		return errors.New("-model is required (one of: " + strings.Join(kinds, ", ") + ")")
	}
	g, err := kronvalid.NewGenerator(*modelSpec)
	if err != nil {
		return err
	}
	src := kronvalid.ModelSource(g, *shards)

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	// Runs on every return path, so a failed run still yields complete
	// profiles.
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *countOnly {
		fmt.Printf("model\t%s\n", src.Name())
		fmt.Printf("vertices\t%d\n", src.NumVertices())
		if arcs := src.TotalArcs(); arcs >= 0 {
			fmt.Printf("arcs\t%d\n", arcs)
		} else {
			fmt.Printf("arcs\tunknown until generated\n")
		}
		for w := 0; w < src.Shards(); w++ {
			lo, hi := src.VertexRange(w)
			if n := src.ShardSize(w); n >= 0 {
				fmt.Printf("shard-%d\tvertices [%d,%d)\t%d arcs\n", w, lo, hi, n)
			} else {
				fmt.Printf("shard-%d\tvertices [%d,%d)\n", w, lo, hi)
			}
		}
		return nil
	}
	if *csrPath != "" && !out.Digest { // -digest takes precedence over -csr
		return writeCSR(ctx, src, *csrPath, out)
	}
	return out.Emit(ctx, "gengen", src)
}

// writeCSR materializes src with the two-pass parallel builder and
// writes it to path in the KRONCSR1 format.
func writeCSR(ctx context.Context, src kronvalid.Source, path string, out *cliutil.OutputFlags) error {
	opts, done := out.ProgressOption(src)
	cg, err := kronvalid.ToCSR(ctx, src, opts...)
	done()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := kronvalid.WriteCSR(f, cg); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gengen: wrote CSR (%d vertices, %d arcs, digest %s) to %s\n",
		cg.NumVertices(), cg.NumArcs(), kronvalid.CSRDigest(cg), path)
	return nil
}
