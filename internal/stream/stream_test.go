package stream

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// synthGen builds a ShardGen in which shard w deterministically emits arcs
// (w*perShard+i, i) for i in [0, perShard).
func synthGen(perShard int) ShardGen {
	return func(w int, buf []Arc, emit func([]Arc) []Arc) {
		for i := 0; i < perShard; i++ {
			buf = append(buf, Arc{U: int64(w*perShard + i), V: int64(i)})
			if len(buf) == cap(buf) {
				if buf = emit(buf); buf == nil {
					return
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			emit(buf)
		}
	}
}

// collectSink records every arc it sees.
type collectSink struct {
	arcs    []Arc
	flushed int
}

func (c *collectSink) Consume(batch []Arc) error {
	c.arcs = append(c.arcs, batch...)
	return nil
}
func (c *collectSink) Flush() error { c.flushed++; return nil }

func TestRunPreservesShardOrder(t *testing.T) {
	const shards, perShard = 7, 1000
	for _, workers := range []int{1, 2, 3, 8} {
		var got collectSink
		n, err := RunContext(context.Background(), shards, synthGen(perShard), &got,
			Options{Workers: workers, BatchSize: 64, Buffer: 2})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != shards*perShard {
			t.Fatalf("workers=%d: n=%d want %d", workers, n, shards*perShard)
		}
		if got.flushed != 1 {
			t.Fatalf("workers=%d: flushed %d times", workers, got.flushed)
		}
		for i, a := range got.arcs {
			if a.U != int64(i) {
				t.Fatalf("workers=%d: arc %d has U=%d — order not preserved", workers, i, a.U)
			}
		}
	}
}

func TestRunSinkErrorStopsStream(t *testing.T) {
	boom := errors.New("boom")
	var seen int64
	sink := FuncSink(func(batch []Arc) error {
		seen += int64(len(batch))
		if seen >= 200 {
			return boom
		}
		return nil
	})
	n, err := RunContext(context.Background(), 16, synthGen(10000), sink, Options{Workers: 4, BatchSize: 64})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n >= 16*10000 {
		t.Fatalf("stream did not stop early: n=%d", n)
	}
}

func TestRunPerShardCountsAndErrors(t *testing.T) {
	sinks := make([]*collectSink, 5)
	counts, err := RunPerShardContext(context.Background(), 5, synthGen(777),
		func(w int) (Sink, error) {
			sinks[w] = &collectSink{}
			return sinks[w], nil
		}, Options{Workers: 3, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for w, c := range counts {
		if c != 777 || len(sinks[w].arcs) != 777 {
			t.Fatalf("shard %d: count %d, collected %d", w, c, len(sinks[w].arcs))
		}
		if sinks[w].arcs[0].U != int64(w*777) {
			t.Fatalf("shard %d got wrong arcs", w)
		}
	}
	wantErr := errors.New("no sink")
	if _, err := RunPerShardContext(context.Background(), 3, synthGen(10), func(w int) (Sink, error) {
		if w == 1 {
			return nil, wantErr
		}
		return &collectSink{}, nil
	}, Options{}); !errors.Is(err, wantErr) {
		t.Fatalf("sink creation error not reported: %v", err)
	}
}

// synthSource is a minimal Source over synthGen; with factoryCalls set it
// is also a FactorySource that counts how many workers asked for a
// generator.
type synthSource struct {
	shards, perShard int
	factoryCalls     *atomic.Int64
}

func (s synthSource) Name() string          { return "synth" }
func (s synthSource) NumVertices() int64    { return int64(s.shards * s.perShard) }
func (s synthSource) TotalArcs() int64      { return -1 }
func (s synthSource) Shards() int           { return s.shards }
func (s synthSource) ShardSize(w int) int64 { return int64(s.perShard) }
func (s synthSource) VertexRange(w int) (lo, hi int64) {
	return int64(w * s.perShard), int64((w + 1) * s.perShard)
}
func (s synthSource) EachShardBatch(w int, buf []Arc, emit func([]Arc) []Arc) {
	synthGen(s.perShard)(w, buf, emit)
}

type synthFactorySource struct{ synthSource }

func (s synthFactorySource) ShardGenFactory() GenFactory {
	return func() ShardGen {
		s.factoryCalls.Add(1)
		return s.EachShardBatch
	}
}

// TestRunSourceUsesFactoryPerWorker pins the source-level entry: a plain
// Source streams through EachShardBatch, a FactorySource is asked for
// exactly one generator per worker goroutine (not per shard), and
// CountSource counts an unknown-size source by streaming it.
func TestRunSourceUsesFactoryPerWorker(t *testing.T) {
	const shards, perShard, workers = 8, 100, 3
	plain := synthSource{shards: shards, perShard: perShard}
	var calls atomic.Int64
	factory := synthFactorySource{synthSource{shards: shards, perShard: perShard, factoryCalls: &calls}}
	for name, src := range map[string]Source{"plain": plain, "factory": factory} {
		var got collectSink
		n, err := RunSource(context.Background(), src, &got, Options{Workers: workers, BatchSize: 16})
		if err != nil || n != shards*perShard || got.flushed != 1 {
			t.Fatalf("%s: n=%d err=%v flushed=%d", name, n, err, got.flushed)
		}
		for i, a := range got.arcs {
			if a.U != int64(i) {
				t.Fatalf("%s: arc %d has U=%d — order not preserved", name, i, a.U)
			}
		}
	}
	if c := calls.Load(); c != workers {
		t.Fatalf("factory called %d times for %d workers over %d shards", c, workers, shards)
	}
	if n, err := CountSource(context.Background(), factory, Options{Workers: 1}); err != nil || n != shards*perShard {
		t.Fatalf("CountSource = %d, %v", n, err)
	}
}

func TestRunZeroShards(t *testing.T) {
	var got collectSink
	n, err := RunContext(context.Background(), 0, synthGen(10), &got, Options{})
	if err != nil || n != 0 || got.flushed != 1 {
		t.Fatalf("n=%d err=%v flushed=%d", n, err, got.flushed)
	}
}

func TestCountAndMultiSink(t *testing.T) {
	var count CountSink
	var check DedupCheckSink
	sink := MultiSink{&count, &check}
	n, err := RunContext(context.Background(), 3, synthGen(100), sink, Options{Workers: 2, BatchSize: 16})
	if err != nil || n != 300 || count.N != 300 {
		t.Fatalf("n=%d count=%d err=%v", n, count.N, err)
	}
}

func TestDedupCheckSinkDetectsDisorder(t *testing.T) {
	var d DedupCheckSink
	if err := d.Consume([]Arc{{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 0}}); err != nil {
		t.Fatalf("ordered stream rejected: %v", err)
	}
	if err := d.Consume([]Arc{{U: 2, V: 0}}); err == nil {
		t.Fatal("duplicate accepted")
	}
	var d2 DedupCheckSink
	if err := d2.Consume([]Arc{{U: 5, V: 0}, {U: 4, V: 9}}); err == nil {
		t.Fatal("descending U accepted")
	}
}

func TestDegreeHistogramSink(t *testing.T) {
	var h DegreeHistogramSink
	// Vertex 0: degree 3, vertex 1: degree 1, vertex 7: degree 2 —
	// delivered across two batches to exercise run continuation.
	if err := h.Consume([]Arc{{U: 0, V: 1}, {U: 0, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Consume([]Arc{{U: 0, V: 3}, {U: 1, V: 0}, {U: 7, V: 0}, {U: 7, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{3: 1, 1: 1, 2: 1}
	if fmt.Sprint(h.Counts) != fmt.Sprint(want) {
		t.Fatalf("histogram = %v, want %v", h.Counts, want)
	}
}
