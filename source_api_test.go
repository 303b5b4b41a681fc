package kronvalid

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// rggGenerator returns the model used to exercise the unified verbs over
// a model source with cross-chunk dependence (rgg regenerates neighbor
// cells), the hardest case for batching invariance.
func rggGenerator(t *testing.T) ModelGenerator {
	t.Helper()
	g, err := NewGenerator("rgg2d:n=5000,r=0.02,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStreamByteIdentityAcrossBatchingAndWorkers pins the central
// invariant of the unified pipeline on pathological configurations:
// for one Kronecker product and one rgg2d model, the streamed bytes are
// identical for WithBatchSize ∈ {1, 7, 1<<20} × WithWorkers ∈ {1, 4, 8}
// — batching and scheduling never reorder the canonical stream.
func TestStreamByteIdentityAcrossBatchingAndWorkers(t *testing.T) {
	ctx := context.Background()
	sources := map[string]Source{
		"kron":  ProductSource(pipelineProduct(), 8),
		"rgg2d": ModelSource(rggGenerator(t), 8),
	}
	for name, src := range sources {
		var want []byte
		for _, batch := range []int{1, 7, 1 << 20} {
			for _, workers := range []int{1, 4, 8} {
				var got bytes.Buffer
				var check DedupCheckSink
				n, err := Stream(ctx, src, MultiSink{NewEdgeListSink(&got), &check},
					WithBatchSize(batch), WithWorkers(workers))
				if err != nil {
					t.Fatalf("%s batch=%d workers=%d: %v", name, batch, workers, err)
				}
				if n == 0 {
					t.Fatalf("%s batch=%d workers=%d: empty stream", name, batch, workers)
				}
				if want == nil {
					want = append([]byte(nil), got.Bytes()...)
				} else if !bytes.Equal(want, got.Bytes()) {
					t.Fatalf("%s: bytes differ at batch=%d workers=%d", name, batch, workers)
				}
			}
		}
	}
}

// TestWriteShardsStampsIdentity pins the manifest identity WriteShards
// stamps on a Kronecker source: the uniform Source name, model "kron"
// with both factor digests, and the caller's Extra annotations.
func TestWriteShardsStampsIdentity(t *testing.T) {
	p := pipelineProduct()
	src := ProductSource(p, 4)
	m, err := WriteShards(context.Background(), t.TempDir(), src,
		WithManifestExtra(map[string]string{"pr": "5"}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != src.Name() || m.Model != "kron" ||
		m.FactorADigest != GraphDigest(p.A) || m.FactorBDigest != GraphDigest(p.B) {
		t.Errorf("manifest identity incomplete: %+v", m)
	}
	if m.Extra["pr"] != "5" {
		t.Errorf("manifest extra lost: %v", m.Extra)
	}
}

// TestCountAndDigestConveniences pins the two conveniences: Count equals
// the streamed count whether or not the source knows it ahead of
// generation, and Digest equals the digest of the materialized CSR.
func TestCountAndDigestConveniences(t *testing.T) {
	ctx := context.Background()
	p := pipelineProduct()
	kronSrc := ProductSource(p, 4)
	if n, err := Count(ctx, kronSrc); err != nil || n != p.NumArcs() {
		t.Fatalf("kron Count = %d, %v; want %d", n, err, p.NumArcs())
	}
	// er's arc count is only known by generating.
	er, err := NewGenerator("er:n=3000,p=0.004,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	erSrc := ModelSource(er, 4)
	if erSrc.TotalArcs() >= 0 {
		t.Fatal("er source claims an exact arc count; Count test needs an expectation-only model")
	}
	n, err := Count(ctx, erSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The count forks per shard at several workers; one worker, and a
	// closure at any worker count, see the stream in order.
	for _, workers := range []int{1, 3, 8} {
		if m, err := Count(ctx, erSrc, WithWorkers(workers)); err != nil || m != n {
			t.Fatalf("Count at %d workers = %d, %v; want %d", workers, m, err, n)
		}
	}
	var streamed int64
	ordered := SinkFunc(func(batch []Arc) error { streamed += int64(len(batch)); return nil })
	if _, err := Stream(ctx, erSrc, ordered, WithWorkers(3)); err != nil || streamed != n {
		t.Fatalf("Count = %d but stream delivered %d (err %v)", n, streamed, err)
	}
	for name, src := range map[string]Source{"kron": kronSrc, "er": erSrc} {
		cg, err := ToCSR(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Digest(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if d != CSRDigest(cg) {
			t.Errorf("%s: Digest %s != CSRDigest %s", name, d, CSRDigest(cg))
		}
	}
}

// cancellingSink cancels its context partway through the stream.
type cancellingSink struct {
	cancel  context.CancelFunc
	after   int
	batches int
}

func (c *cancellingSink) Consume(batch []Arc) error {
	c.batches++
	if c.batches == c.after {
		c.cancel()
	}
	return nil
}
func (c *cancellingSink) Flush() error { return nil }

// waitGoroutines polls until the goroutine count is back to at most base
// or the deadline passes.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamCancellationSemantics is the public-API cancellation pin: a
// context cancelled mid-stream makes Stream return ctx.Err() within a
// bounded number of batches, leaking no goroutines, for both source
// families.
func TestStreamCancellationSemantics(t *testing.T) {
	big := MustProduct(WebGraph(3000, 3, 0.7, 9), HubCycle(6))
	for name, src := range map[string]Source{
		"kron":  ProductSource(big, 8),
		"rgg2d": ModelSource(rggGenerator(t), 8),
	} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancellingSink{cancel: cancel, after: 2}
		n, err := Stream(ctx, src, sink, WithWorkers(4), WithBatchSize(64))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if sink.batches > sink.after+1 {
			t.Errorf("%s: sink saw %d batches after cancelling at %d — not bounded by one batch",
				name, sink.batches, sink.after)
		}
		total := src.TotalArcs()
		if total < 0 {
			total = int64(^uint64(0) >> 1)
		}
		if n >= total {
			t.Errorf("%s: cancelled stream still delivered all %d arcs", name, n)
		}
		if got := waitGoroutines(base); got > base {
			t.Errorf("%s: %d goroutines before, %d after — leak", name, base, got)
		}
		cancel()
	}
}

// TestToCSRCancellation pins that both CSR modes honor cancellation and
// never return a partial graph.
func TestToCSRCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := ProductSource(pipelineProduct(), 4)
	if g, err := ToCSR(ctx, src); g != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("two-pass: graph=%v err=%v", g != nil, err)
	}
	if g, err := ToCSR(ctx, src, WithTwoPass(false)); g != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("one-pass: graph=%v err=%v", g != nil, err)
	}
}

// TestWriteShardsCancellationLeavesNoManifest pins the public abort
// contract: a cancelled WriteShards returns ctx.Err() and leaves the
// output directory without a manifest.json.
func TestWriteShardsCancellationLeavesNoManifest(t *testing.T) {
	big := MustProduct(WebGraph(3000, 3, 0.7, 9), HubCycle(6))
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	_, err := WriteShards(ctx, dir, ProductSource(big, 8),
		WithBatchSize(64),
		WithProgress(func(arcs, shards int64) {
			calls++
			if calls == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(serr) {
		t.Fatalf("manifest exists after cancelled WriteShards (stat err: %v)", serr)
	}
	if _, rerr := ReadShardManifest(dir); rerr == nil {
		t.Fatal("ReadShardManifest succeeded on an aborted directory")
	}
}
