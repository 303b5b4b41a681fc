package stream

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// sliceGen is a ShardGen over explicit per-shard arc lists, honouring
// the emit contract (full batches, a final partial one, nil stops).
func sliceGen(shards [][]Arc) ShardGen {
	return func(w int, buf []Arc, emit func([]Arc) []Arc) {
		for _, a := range shards[w] {
			buf = append(buf, a)
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

// runLengths is a canonical stream in which vertex u has (u·7 mod 5)
// out-arcs — some vertices none, runs of one to four arcs.
func runLengths(vertices int) []Arc {
	var arcs []Arc
	for u := 0; u < vertices; u++ {
		for v := 0; v < u*7%5; v++ {
			arcs = append(arcs, Arc{U: int64(u), V: int64(v)})
		}
	}
	return arcs
}

// cutInto splits arcs into the given number of consecutive shards at
// seed-scrambled positions: cuts fall inside a vertex's run, coincide
// (empty shards), and sit at either end.
func cutInto(arcs []Arc, shards int, seed uint64) [][]Arc {
	cuts := make([]int, shards+1)
	cuts[shards] = len(arcs)
	x := seed
	for i := 1; i < shards; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		cuts[i] = int(x >> 33 % uint64(len(arcs)+1))
	}
	for i := 1; i < shards; i++ { // insertion sort: shards is small
		for j := i; j > 1 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	out := make([][]Arc, shards)
	for i := range out {
		out[i] = arcs[cuts[i]:cuts[i+1]]
	}
	return out
}

// verdict is everything the three order-free sinks report about one run.
type verdict struct {
	n, count int64
	hist     map[int64]int64
	err      string
}

func runVerdict(shards [][]Arc, workers, batch int) verdict {
	var count CountSink
	var check DedupCheckSink
	var hist DegreeHistogramSink
	n, err := RunContext(context.Background(), len(shards), sliceGen(shards),
		MultiSink{&count, &check, &hist}, Options{Workers: workers, BatchSize: batch})
	v := verdict{n: n, count: count.N, hist: hist.Counts}
	if err != nil {
		v.err = err.Error()
	}
	return v
}

// TestForkJoinMatchesSerial is the fork/join contract: over every worker
// count, shard count and batch size — shards cut mid-run, empty shards,
// an empty source — count, histogram and order verdict of the forked
// path equal the serial path's.
func TestForkJoinMatchesSerial(t *testing.T) {
	streams := map[string][]Arc{"runs": runLengths(400), "empty": nil, "one-vertex": runLengths(2)}
	for name, arcs := range streams {
		for _, shards := range []int{1, 2, 5, 64} {
			parts := cutInto(arcs, shards, uint64(shards))
			for _, batch := range []int{1, 7, 4096} {
				want := runVerdict(parts, 1, batch)
				if want.err != "" || want.count != int64(len(arcs)) {
					t.Fatalf("%s shards=%d batch=%d: serial path: %+v", name, shards, batch, want)
				}
				for _, workers := range []int{2, 3, 8} {
					if got := runVerdict(parts, workers, batch); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s shards=%d batch=%d workers=%d:\n got %+v\nwant %+v", name, shards, batch, workers, got, want)
					}
				}
			}
		}
	}
}

// TestForkedOrderViolations plants faults the forks cannot all see on
// their own and checks that the forked path words them exactly as the
// serial one does — in particular that with two faults the earlier one
// in stream order is the one reported, wherever each was detected.
func TestForkedOrderViolations(t *testing.T) {
	// Four shards of six arcs: shard w holds (w, 0) … (w, 5).
	clean := func() [][]Arc {
		shards := make([][]Arc, 4)
		for w := range shards {
			for v := 0; v < 6; v++ {
				shards[w] = append(shards[w], Arc{U: int64(w), V: int64(v)})
			}
		}
		return shards
	}
	inside := func(s [][]Arc, w int) { s[w][3], s[w][4] = s[w][4], s[w][3] }
	boundary := func(s [][]Arc, w int) { s[w][0].U = s[w-1][5].U - 1 } // first arc of w sorts before w-1's last
	duplicate := func(s [][]Arc, w int) { s[w][0] = s[w-1][5] }
	cases := map[string]func(s [][]Arc){
		"inside a shard":                      func(s [][]Arc) { inside(s, 2) },
		"on a shard boundary":                 func(s [][]Arc) { boundary(s, 2) },
		"duplicate of the previous last arc":  func(s [][]Arc) { duplicate(s, 3) },
		"inside, then boundary":               func(s [][]Arc) { inside(s, 1); boundary(s, 3) },
		"boundary, then inside a later shard": func(s [][]Arc) { boundary(s, 1); inside(s, 3) },
		"boundary, then inside the same":      func(s [][]Arc) { boundary(s, 2); inside(s, 2) },
		"inside two shards":                   func(s [][]Arc) { inside(s, 3); inside(s, 0) },
		"two boundaries":                      func(s [][]Arc) { duplicate(s, 3); boundary(s, 1) },
	}
	for name, plant := range cases {
		shards := clean()
		plant(shards)
		for _, batch := range []int{1, 4, 4096} {
			want := runVerdict(shards, 1, batch).err
			if want == "" {
				t.Fatalf("%s batch=%d: serial path accepted the stream", name, batch)
			}
			for _, workers := range []int{2, 4} {
				if got := runVerdict(shards, workers, batch).err; got != want {
					t.Errorf("%s batch=%d workers=%d: forked path reports %q, serial %q", name, batch, workers, got, want)
				}
			}
		}
	}
}

// TestMultiSinkWithOrderedChildTakesChannelPath: one child that cannot
// fork keeps the whole fan-out on ordered delivery — the order-free
// children beside it are fed directly, and the child sees the canonical
// stream. It is also the channel-path twin of TestCountAndMultiSink.
func TestMultiSinkWithOrderedChildTakesChannelPath(t *testing.T) {
	const shards, perShard = 7, 1000
	for _, workers := range []int{2, 3, 8} {
		var count CountSink
		var check DedupCheckSink
		var got collectSink
		n, err := RunContext(context.Background(), shards, synthGen(perShard),
			MultiSink{&count, &check, &got}, Options{Workers: workers, BatchSize: 64, Buffer: 2})
		if err != nil || n != shards*perShard || count.N != n || got.flushed != 1 {
			t.Fatalf("workers=%d: n=%d count=%d err=%v flushed=%d", workers, n, count.N, err, got.flushed)
		}
		for i, a := range got.arcs {
			if a.U != int64(i) {
				t.Fatalf("workers=%d: arc %d has U=%d — order not preserved", workers, i, a.U)
			}
		}
	}
	if (MultiSink{&CountSink{}, &collectSink{}}).Fork() != nil {
		t.Fatal("a MultiSink with a non-forkable child forked")
	}
	if (MultiSink{&CountSink{}, MultiSink{&DedupCheckSink{}, &DegreeHistogramSink{}}}).Fork() == nil {
		t.Fatal("a nested MultiSink of forkable children did not fork")
	}
}

// spySink is a ForkSink that counts what the driver does to it and to
// its forks; cancelAt > 0 makes the fork that consumes that batch (in
// global arrival order) cancel the context, and late counts the batches
// that arrived after cancel had returned.
type spySink struct {
	forks     []*spyFork
	flushed   int
	joined    int
	batches   atomic.Int64
	cancelAt  int64
	cancel    context.CancelFunc
	cancelled atomic.Bool
	late      atomic.Int64
}

type spyFork struct {
	parent   *spySink
	consumed int
	flushed  int
}

func (s *spySink) Consume([]Arc) error { return errors.New("spySink: parent consumed a batch") }
func (s *spySink) Flush() error        { s.flushed++; return nil }
func (s *spySink) Fork() Sink {
	f := &spyFork{parent: s}
	s.forks = append(s.forks, f)
	return f
}
func (s *spySink) Join(parts []Sink) error { s.joined++; return nil }

func (f *spyFork) Consume(batch []Arc) error {
	f.consumed++
	if f.parent.cancelled.Load() {
		f.parent.late.Add(1)
	}
	if f.parent.batches.Add(1) == f.parent.cancelAt {
		f.parent.cancel()
		f.parent.cancelled.Store(true)
	}
	return nil
}
func (f *spyFork) Flush() error { f.flushed++; return nil }

// TestForkedCancellation: a cancellation mid-stream joins every worker,
// returns ctx.Err(), flushes the parent exactly once and every fork that
// was started exactly once, and never joins.
func TestForkedCancellation(t *testing.T) {
	for _, workers := range []int{2, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &spySink{cancelAt: 5, cancel: cancel}
		const shards, perShard = 8, 100000
		n, err := RunContext(ctx, shards, synthGen(perShard), sink, Options{Workers: workers, BatchSize: 64})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n >= shards*perShard {
			t.Errorf("workers=%d: stream ran to completion (n=%d) despite cancellation", workers, n)
		}
		if sink.flushed != 1 || sink.joined != 0 {
			t.Errorf("workers=%d: parent flushed %d times, joined %d times; want 1 and 0", workers, sink.flushed, sink.joined)
		}
		started := 0
		for w, f := range sink.forks {
			if f.consumed > 0 {
				started++
			}
			if f.flushed > 1 || (f.consumed > 0 && f.flushed != 1) {
				t.Errorf("workers=%d: fork %d consumed %d batches and was flushed %d times", workers, w, f.consumed, f.flushed)
			}
		}
		// A worker that checked ctx just before the cancellation may
		// still deliver the batch it holds: one each, no more.
		if late := sink.late.Load(); late > int64(workers) {
			t.Errorf("workers=%d: %d batches delivered after the cancellation", workers, late)
		}
		if started == 0 || started > workers {
			t.Errorf("workers=%d: %d forks started", workers, started)
		}
		if got := settleGoroutines(base); got > base {
			t.Errorf("workers=%d: %d goroutines before, %d after cancellation — leak", workers, base, got)
		}
		cancel()
	}
}

// TestForkedPreCancelled: a context cancelled before the call delivers
// nothing and still flushes the parent once.
func TestForkedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &spySink{}
	n, err := RunContext(ctx, 4, synthGen(100), sink, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) || n != 0 || sink.flushed != 1 || sink.batches.Load() != 0 {
		t.Fatalf("n=%d err=%v flushed=%d batches=%d", n, err, sink.flushed, sink.batches.Load())
	}
}

// TestForkedProgress: on the order-free path the totals are serialized,
// monotone, and end at (arcs, shards).
func TestForkedProgress(t *testing.T) {
	var lastArcs, lastShards int64
	calls := 0
	const shards, perShard = 9, 1000
	var count CountSink
	n, err := RunContext(context.Background(), shards, synthGen(perShard), &count, Options{
		Workers:   3,
		BatchSize: 128,
		Progress: func(arcs, shardsDone int64) {
			calls++
			if arcs < lastArcs || shardsDone < lastShards {
				t.Errorf("progress went backwards: (%d,%d) after (%d,%d)", arcs, shardsDone, lastArcs, lastShards)
			}
			lastArcs, lastShards = arcs, shardsDone
		},
	})
	if err != nil || n != shards*perShard || count.N != n {
		t.Fatalf("n=%d count=%d err=%v", n, count.N, err)
	}
	if calls == 0 || lastArcs != n || lastShards != shards {
		t.Fatalf("progress ended at (%d arcs, %d shards) after %d calls; streamed %d", lastArcs, lastShards, calls, n)
	}
}

// TestForkedFactoryOncePerWorker: counting a FactorySource through the
// order-free path asks its factory for one generator per worker, not per
// shard.
func TestForkedFactoryOncePerWorker(t *testing.T) {
	const shards, perShard, workers = 8, 100, 3
	var calls atomic.Int64
	src := synthFactorySource{synthSource{shards: shards, perShard: perShard, factoryCalls: &calls}}
	n, err := CountSource(context.Background(), src, Options{Workers: workers, BatchSize: 16})
	if err != nil || n != shards*perShard {
		t.Fatalf("CountSource = %d, %v", n, err)
	}
	if c := calls.Load(); c != workers {
		t.Fatalf("factory called %d times for %d workers over %d shards", c, workers, shards)
	}
}

// TestForkedSinkErrorStopsLaterShards: a fork's error is returned, the
// shards after it stop early, and the parent is still joined (up to the
// failing shard) and flushed once.
func TestForkedSinkErrorStopsLaterShards(t *testing.T) {
	boom := errors.New("boom")
	sink := &failingForks{failShard: 1, err: boom}
	const shards, perShard = 16, 10000
	n, err := RunContext(context.Background(), shards, synthGen(perShard), sink, Options{Workers: 4, BatchSize: 64})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n >= shards*perShard {
		t.Fatalf("stream did not stop early: n=%d", n)
	}
	if sink.flushed != 1 || sink.joinedParts != sink.failShard+1 {
		t.Fatalf("parent flushed %d times and joined %d parts, want 1 and %d", sink.flushed, sink.joinedParts, sink.failShard+1)
	}
}

// failingForks forks sinks of which the failShard-th errors on its third
// batch.
type failingForks struct {
	failShard   int
	err         error
	forked      int
	flushed     int
	joinedParts int
}

func (s *failingForks) Consume([]Arc) error { return nil }
func (s *failingForks) Flush() error        { s.flushed++; return nil }
func (s *failingForks) Fork() Sink {
	s.forked++
	if s.forked-1 != s.failShard {
		return FuncSink(func([]Arc) error { return nil })
	}
	batches := 0
	return FuncSink(func([]Arc) error {
		if batches++; batches == 3 {
			return s.err
		}
		return nil
	})
}
func (s *failingForks) Join(parts []Sink) error { s.joinedParts = len(parts); return nil }

// TestDegreeHistogramJoinAcrossManyParts: one vertex's run spread over
// several whole parts, with empty parts between, is one vertex.
func TestDegreeHistogramJoinAcrossManyParts(t *testing.T) {
	var h DegreeHistogramSink
	feed := func(arcs ...Arc) Sink {
		f := h.Fork()
		if err := f.Consume(arcs); err != nil {
			t.Fatal(err)
		}
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	parts := []Sink{
		feed(Arc{U: 1, V: 0}, Arc{U: 3, V: 0}),
		feed(Arc{U: 3, V: 1}),
		feed(),
		feed(Arc{U: 3, V: 2}, Arc{U: 3, V: 3}),
		feed(Arc{U: 3, V: 4}, Arc{U: 4, V: 0}, Arc{U: 4, V: 1}, Arc{U: 9, V: 9}),
	}
	if err := h.Join(parts); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{1: 2, 5: 1, 2: 1} // vertices 1 and 9; vertex 3; vertex 4
	if fmt.Sprint(h.Counts) != fmt.Sprint(want) {
		t.Fatalf("histogram = %v, want %v", h.Counts, want)
	}
}
