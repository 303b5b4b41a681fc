package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"kronvalid/internal/stream"
)

// The traced run measures every layer from outside: the wrappers below
// sit on the layer boundaries the pipeline already has (Source, Sink,
// io.Writer, http.RoundTripper) and only read the clock. They keep
// per-shard or per-request totals; the workload turns those into spans
// after each repetition, so nothing is allocated or locked while arcs
// flow.

// span is one timed interval of one layer. Busy is the time actually
// spent inside the layer: End-Start for a contiguous span, the sum of the
// calls for a span that aggregates many short ones (all emit calls of a
// shard, all Write calls on a file). A layer's self time is its Busy
// minus the Busy of its children.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Part     string `json:"part,omitempty"`  // model kind or request class
	Index    int    `json:"index,omitempty"` // shard or request number
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	BusyNS   int64  `json:"busy_ns"`
	Arcs     int64  `json:"arcs,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// add records a span and returns its id for children to name.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Workload = t.workload
	t.spans = append(t.spans, s)
	return s.ID
}

// newSpan builds a span over [start, end] that was busy for the given time;
// the caller fills in what else it knows and hands it to add.
func (t *tracer) newSpan(parent int, name string, rep int, start, end time.Time, busy time.Duration) span {
	return span{Parent: parent, Name: name, Rep: rep, BusyNS: busy.Nanoseconds(),
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()}
}

// interval records a contiguous span.
func (t *tracer) interval(parent int, name string, rep int, start, end time.Time) int {
	return t.add(t.newSpan(parent, name, rep, start, end, end.Sub(start)))
}

// writeTo appends the spans to path as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// shardTiming is what timedSource learns about one shard generation.
type shardTiming struct {
	start, end time.Time
	emit       time.Duration // inside the emit callback: sink time under the per-shard driver, producer blocked under the ordered one
	arcs       int64
}

func (s *shardTiming) wall() time.Duration { return s.end.Sub(s.start) }

// self is the generation time proper: the shard's wall time minus the
// time its emit callback held the generator.
func (s *shardTiming) self() time.Duration { return s.wall() - s.emit }

// timedSource wraps a Source and times every shard generation. Each
// shard index owns its slot, so concurrently generating shards never
// share a word; read the slots only after the driver has returned.
type timedSource struct {
	stream.Source
	shards []shardTiming
}

// wrapSource returns src with timing around EachShardBatch. A source
// with per-worker generator state stays a stream.FactorySource, so
// drivers still hand every worker its own caches.
func wrapSource(src stream.Source) (stream.Source, *timedSource) {
	t := &timedSource{Source: src, shards: make([]shardTiming, src.Shards())}
	if fs, ok := src.(stream.FactorySource); ok {
		return timedFactorySource{timedSource: t, factory: fs.ShardGenFactory}, t
	}
	return t, t
}

func (t *timedSource) EachShardBatch(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	t.timeShard(t.Source.EachShardBatch, w, buf, emit)
}

func (t *timedSource) timeShard(gen stream.ShardGen, w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	st := &t.shards[w]
	*st = shardTiming{start: time.Now()}
	gen(w, buf, func(full []stream.Arc) []stream.Arc {
		t0 := time.Now()
		next := emit(full)
		st.emit += time.Since(t0)
		st.arcs += int64(len(full))
		return next
	})
	st.end = time.Now()
}

type timedFactorySource struct {
	*timedSource
	factory func() stream.GenFactory
}

func (t timedFactorySource) ShardGenFactory() stream.GenFactory {
	inner := t.factory()
	return func() stream.ShardGen {
		gen := inner() // one generator, hence one cache, per worker
		return func(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
			t.timeShard(gen, w, buf, emit)
		}
	}
}

// timedSink times Consume and the gaps between consecutive Consume
// calls (the consumer waiting for its producers).
type timedSink struct {
	inner   stream.Sink
	busy    time.Duration
	idle    time.Duration
	lastEnd time.Time
	arcs    int64
}

func (s *timedSink) Consume(batch []stream.Arc) error {
	t0 := time.Now()
	if !s.lastEnd.IsZero() {
		s.idle += t0.Sub(s.lastEnd)
	}
	err := s.inner.Consume(batch)
	s.lastEnd = time.Now()
	s.busy += s.lastEnd.Sub(t0)
	s.arcs += int64(len(batch))
	return err
}

func (s *timedSink) Flush() error { return s.inner.Flush() }

// timedWriter times Write on the writer under an encoder.
type timedWriter struct {
	w     io.Writer
	busy  time.Duration
	bytes int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.w.Write(p)
	w.busy += time.Since(t0)
	w.bytes += int64(n)
	return n, err
}

// roundTrip is what timedTransport learns about one HTTP exchange.
type roundTrip struct {
	start     time.Time // request handed to the transport
	header    time.Time // response headers in hand
	firstByte time.Time // first body byte read
	end       time.Time // body exhausted or closed
	bytes     int64
}

// timedTransport wraps an http.RoundTripper and reports every exchange,
// once its body has been read to the end or closed, to the done
// callback.
type timedTransport struct {
	inner http.RoundTripper
	done  func(req *http.Request, rt roundTrip)
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt := roundTrip{start: time.Now()}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	rt.header = time.Now()
	resp.Body = &timedBody{body: resp.Body, rt: rt, report: func(rt roundTrip) { t.done(req, rt) }}
	return resp, nil
}

type timedBody struct {
	body     io.ReadCloser
	rt       roundTrip
	report   func(roundTrip)
	reported bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.body.Read(p)
	if n > 0 && b.rt.firstByte.IsZero() {
		b.rt.firstByte = time.Now()
	}
	b.rt.bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.body.Close()
}

func (b *timedBody) finish() {
	if b.reported {
		return
	}
	b.reported = true
	b.rt.end = time.Now()
	if b.rt.firstByte.IsZero() {
		b.rt.firstByte = b.rt.end
	}
	b.report(b.rt)
}
