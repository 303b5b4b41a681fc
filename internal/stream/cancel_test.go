package stream

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelAfterSink cancels the bound context after consuming `after`
// batches, then keeps counting what it is still given.
type cancelAfterSink struct {
	cancel  context.CancelFunc
	after   int
	batches int
	flushed int
}

func (c *cancelAfterSink) Consume(batch []Arc) error {
	c.batches++
	if c.batches == c.after {
		c.cancel()
	}
	return nil
}
func (c *cancelAfterSink) Flush() error { c.flushed++; return nil }

// settleGoroutines polls until the goroutine count drops back to at most
// base (or the deadline passes), absorbing scheduler lag without a
// flaky fixed sleep.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunContextCancelStopsPromptlyWithoutLeaks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelAfterSink{cancel: cancel, after: 3}
		const shards, perShard = 8, 100000
		n, err := RunContext(ctx, shards, synthGen(perShard), sink,
			Options{Workers: workers, BatchSize: 64, Buffer: 2})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Bounded by one batch: the sink saw its triggering batch and at
		// most one more that was already in flight toward it.
		if sink.batches > sink.after+1 {
			t.Errorf("workers=%d: sink consumed %d batches after cancelling on batch %d",
				workers, sink.batches, sink.after)
		}
		if n >= shards*perShard {
			t.Errorf("workers=%d: stream ran to completion (n=%d) despite cancellation", workers, n)
		}
		if sink.flushed != 1 {
			t.Errorf("workers=%d: Flush ran %d times, want exactly once", workers, sink.flushed)
		}
		if got := settleGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines before, %d after cancellation — leak", workers, base, got)
		}
		cancel()
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got collectSink
	n, err := RunContext(ctx, 4, synthGen(100), &got, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 || len(got.arcs) != 0 {
		t.Fatalf("pre-cancelled run delivered %d arcs", n)
	}
	if got.flushed != 1 {
		t.Fatalf("Flush ran %d times", got.flushed)
	}
}

func TestRunContextCancelWhileConsumerWaits(t *testing.T) {
	// A generator that blocks until cancellation: the consumer is parked
	// waiting for the first batch, so only the stop-channel select can
	// wake it. The run must still return promptly with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	slowGen := func(w int, buf []Arc, emit func([]Arc) []Arc) {
		<-ctx.Done()
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var err error
	go func() {
		_, err = RunContext(ctx, 4, slowGen, &collectSink{}, Options{Workers: 2})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPerShardContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	sinks := make(chan *cancelAfterSink, 16)
	_, err := RunPerShardContext(ctx, 8, synthGen(100000),
		func(w int) (Sink, error) {
			s := &cancelAfterSink{cancel: cancel, after: 2}
			sinks <- s
			return s, nil
		}, Options{Workers: 4, BatchSize: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(sinks)
	for s := range sinks {
		if s.flushed != 1 {
			t.Errorf("a shard sink was flushed %d times, want exactly once", s.flushed)
		}
	}
	if got := settleGoroutines(base); got > base {
		t.Errorf("%d goroutines before, %d after cancellation — leak", base, got)
	}
}

func TestRunContextProgress(t *testing.T) {
	var lastArcs, lastShards int64
	calls := 0
	const shards, perShard = 5, 1000
	n, err := RunContext(context.Background(), shards, synthGen(perShard), &collectSink{}, Options{
		Workers:   3,
		BatchSize: 128,
		Progress: func(arcs, shardsDone int64) {
			calls++
			if arcs < lastArcs || shardsDone < lastShards {
				t.Fatalf("progress went backwards: (%d,%d) after (%d,%d)", arcs, shardsDone, lastArcs, lastShards)
			}
			lastArcs, lastShards = arcs, shardsDone
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || lastArcs != n || lastShards != shards {
		t.Fatalf("progress ended at (%d arcs, %d shards) after %d calls; streamed %d", lastArcs, lastShards, calls, n)
	}
}

// flushBoom errors on Flush; flushCount proves Flush reached it anyway.
type flushBoom struct {
	err     error
	flushed int
}

func (f *flushBoom) Consume([]Arc) error { return nil }
func (f *flushBoom) Flush() error        { f.flushed++; return f.err }

func TestMultiSinkFlushReachesEveryChildAfterFlushError(t *testing.T) {
	first := &flushBoom{err: errors.New("first flush failed")}
	second := &flushBoom{err: errors.New("second flush failed")}
	third := &flushBoom{}
	m := MultiSink{first, second, third}
	err := m.Flush()
	if !errors.Is(err, first.err) {
		t.Fatalf("Flush returned %v, want the first error", err)
	}
	for i, s := range []*flushBoom{first, second, third} {
		if s.flushed != 1 {
			t.Errorf("child %d flushed %d times, want exactly once", i, s.flushed)
		}
	}
}

// consumeBoom errors on the first Consume.
type consumeBoom struct {
	flushed int
}

func (c *consumeBoom) Consume([]Arc) error { return errors.New("consume failed") }
func (c *consumeBoom) Flush() error        { c.flushed++; return nil }

func TestMultiSinkFlushReachesEveryChildAfterConsumeError(t *testing.T) {
	count := &CountSink{}
	bad := &consumeBoom{}
	tail := &flushBoom{}
	m := MultiSink{count, bad, tail}
	if err := m.Consume([]Arc{{U: 1, V: 2}}); err == nil {
		t.Fatal("consume error swallowed")
	}
	if err := m.Flush(); err != nil {
		t.Fatalf("flush after consume error: %v", err)
	}
	if bad.flushed != 1 || tail.flushed != 1 {
		t.Errorf("flush skipped children after a consume error: bad=%d tail=%d", bad.flushed, tail.flushed)
	}
	// Driver-level: the erroring MultiSink stops the stream and the
	// driver's single Flush still reaches every child.
	bad2 := &consumeBoom{}
	tail2 := &flushBoom{}
	_, err := RunContext(context.Background(), 4, synthGen(100), MultiSink{bad2, tail2}, Options{Workers: 2, BatchSize: 16})
	if err == nil {
		t.Fatal("driver swallowed sink error")
	}
	if bad2.flushed != 1 || tail2.flushed != 1 {
		t.Errorf("driver flush skipped children: bad=%d tail=%d", bad2.flushed, tail2.flushed)
	}
}
