// Krongen streams or shards the edge list of a Kronecker product graph
// C = A ⊗ B built from two factor specifications, using the unified
// Source pipeline (output is bitwise identical for any worker count).
// Interrupting a long generation (SIGINT/SIGTERM) cancels it cleanly:
// sharded output directories are left without a manifest.json, the
// marker readers require.
//
// Usage:
//
//	krongen -a 'web:n=4096,m=4,seed=42' -b 'clique:n=5' > edges.tsv
//	krongen -a ... -b ... -shards 16 -out dir/      # shard files + manifest.json
//	krongen -a ... -b ... -shards 16 -out dir/ -binary
//	krongen -a ... -b ... -count                    # sizes only
//	krongen -a ... -b ... -digest                   # stream digest only
//	krongen -a ... -b ... -shards 16 -out dir/ -progress
//
// See package internal/spec for the factor specification grammar.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"kronvalid"
	"kronvalid/internal/cliutil"
	"kronvalid/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("krongen: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	aSpec := flag.String("a", "", "left factor specification (required)")
	bSpec := flag.String("b", "", "right factor specification (required)")
	shards := flag.Int("shards", 1, "number of shards")
	countOnly := flag.Bool("count", false, "print sizes and exit without generating")
	out := cliutil.RegisterOutputFlags()
	prof := cliutil.ProfileFlags()
	flag.Parse()

	if *aSpec == "" || *bSpec == "" {
		return errors.New("both -a and -b are required")
	}
	a, err := spec.Parse(*aSpec)
	if err != nil {
		return err
	}
	b, err := spec.Parse(*bSpec)
	if err != nil {
		return err
	}
	p, err := kronvalid.NewProduct(a, b)
	if err != nil {
		return err
	}
	src := kronvalid.ProductSource(p, *shards)

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
		fmt.Printf("source\t%s\n", src.Name())
		fmt.Printf("vertices\t%d\n", p.NumVertices())
		fmt.Printf("arcs\t%d\n", p.NumArcs())
		for w := 0; w < src.Shards(); w++ {
			fmt.Printf("shard-%d\t%d\n", w, src.ShardSize(w))
		}
		return nil
	}
	return out.Emit(ctx, "krongen", src)
}
