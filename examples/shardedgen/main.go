// Shardedgen demonstrates communication-free distributed generation
// through the unified Source pipeline: the edge list of C = A ⊗ B is
// partitioned deterministically across P shards, each of which is
// written independently from the (tiny, replicated) factors. Any shard
// can be regenerated by any worker at any time — the property that makes
// trillion-edge benchmark distribution practical (ship the factors, not
// the edges) — and concatenating the shard files in index order
// reproduces the serial edge stream byte for byte. The same Source value
// drives streaming, counting, digesting, and sharded writing, and its
// spec string, recorded as the manifest's source, rebuilds it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"syscall"
	"time"

	"kronvalid"
)

func main() {
	nA := flag.Int("na", 2000, "vertices of factor A")
	workers := flag.Int("workers", 8, "shard count")
	outDir := flag.String("out", "", "directory for shard files (empty = count only)")
	seed := flag.Uint64("seed", 5, "generator seed")
	useBinary := flag.Bool("binary", false, "write binary shards instead of TSV")
	flag.Parse()

	// Ctrl-C cancels mid-shard: the pipeline stops within one batch and
	// an aborted output directory carries no manifest.json.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	spec := fmt.Sprintf("kron(a=web:n=%d,m=3,pt=0.7,seed=%d;b=hubcycle:c=6)", *nA, *seed)
	src, err := kronvalid.ParseSource(spec, *workers)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("C = A⊗B: %d vertices, %d arcs, partitioned into %d shards\n",
		src.NumVertices(), src.TotalArcs(), src.Shards())
	fmt.Printf("source identity: %s\n", src.Name())
	for w := 0; w < src.Shards(); w++ {
		fmt.Printf("  shard %2d: %12d arcs\n", w, src.ShardSize(w))
	}

	start := time.Now()
	if *outDir == "" {
		// Stream all shards through the parallel pipeline, counting and
		// order-checking in one pass without touching disk.
		var count kronvalid.CountingSink
		var check kronvalid.DedupCheckSink
		sink := kronvalid.MultiSink{&count, &check}
		n, err := kronvalid.Stream(ctx, src, sink)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("streamed %d arcs (order verified) in %v across %d shards\n",
			n, time.Since(start), src.Shards())
		return
	}

	m, err := kronvalid.WriteShards(ctx, *outDir, src,
		kronvalid.WithBinary(*useBinary),
		kronvalid.WithManifestExtra(map[string]string{"example": "shardedgen"}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d arcs (%s) to %s in %v\n",
		m.TotalArcs, m.Format, *outDir, time.Since(start))
	fmt.Printf("manifest: source %s, %d shards\n", m.Source, len(m.Shards))
}
