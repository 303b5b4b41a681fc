package csr

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"kronvalid/internal/stream"
)

// oneGen is the factory of a stateless generator: every worker shares
// gen.
func oneGen(gen stream.ShardGen) stream.GenFactory {
	return func() stream.ShardGen { return gen }
}

// synthSource is a replayable sharded source: shard w owns vertices
// [w*rows, (w+1)*rows) and emits `deg` arcs per vertex.
func synthSource(shards, rows, deg int) Source {
	return Source{
		NumVertices: int64(shards * rows),
		NumArcs:     int64(shards * rows * deg),
		Shards:      shards,
		VertexRange: func(w int) (int64, int64) {
			return int64(w * rows), int64((w + 1) * rows)
		},
		NewGen: oneGen(func(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
			for r := 0; r < rows; r++ {
				u := int64(w*rows + r)
				for d := 0; d < deg; d++ {
					buf = append(buf, stream.Arc{U: u, V: int64(d)})
					if len(buf) == cap(buf) {
						if buf = emit(buf); buf == nil {
							return
						}
						buf = buf[:0]
					}
				}
			}
			if len(buf) > 0 {
				emit(buf)
			}
		}),
	}
}

func TestBuildContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	g, err := BuildContext(ctx, synthSource(8, 2000, 200), stream.Options{Workers: 4, BatchSize: 64})
	if g != nil && err == nil {
		// The build may legitimately win the race; rerun with a
		// pre-cancelled context to pin the behavior deterministically.
		t.Log("build finished before cancellation; checking pre-cancelled path")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if g2, err2 := BuildContext(ctx2, synthSource(4, 100, 10), stream.Options{}); g2 != nil || !errors.Is(err2, context.Canceled) {
		t.Fatalf("pre-cancelled build: graph=%v err=%v", g2 != nil, err2)
	}
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled build returned %v, want context.Canceled", err)
		}
		if g != nil {
			t.Fatal("cancelled build returned a graph alongside the error")
		}
	}
	// Workers must be joined either way.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines before build, %d after — leak", base, n)
	}
}

func TestBuildProgressReportsScatterPass(t *testing.T) {
	src := synthSource(4, 50, 8)
	var lastArcs, lastShards int64
	calls := 0
	g, err := BuildContext(context.Background(), src, stream.Options{Workers: 2, BatchSize: 32,
		Progress: func(arcs, shards int64) {
			calls++
			if arcs < lastArcs || shards < lastShards {
				t.Fatalf("progress went backwards: (%d,%d) after (%d,%d)", arcs, shards, lastArcs, lastShards)
			}
			lastArcs, lastShards = arcs, shards
		}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || lastArcs != g.NumArcs() || lastShards != int64(src.Shards) {
		t.Fatalf("progress ended at (%d, %d) after %d calls; graph has %d arcs in %d shards",
			lastArcs, lastShards, calls, g.NumArcs(), src.Shards)
	}
}
