package stream

import "fmt"

// CountSink counts arcs. The zero value is ready to use.
type CountSink struct {
	N int64
}

// Consume adds the batch to the running count.
func (c *CountSink) Consume(batch []Arc) error {
	c.N += int64(len(batch))
	return nil
}

// Flush is a no-op.
func (c *CountSink) Flush() error { return nil }

// Fork returns an empty counter for one shard.
func (c *CountSink) Fork() Sink { return &CountSink{} }

// Join adds the parts' counts.
func (c *CountSink) Join(parts []Sink) error {
	for _, p := range parts {
		c.N += p.(*CountSink).N
	}
	return nil
}

// FuncSink adapts a plain function to a Sink with a no-op Flush.
type FuncSink func(batch []Arc) error

// Consume invokes the wrapped function.
func (f FuncSink) Consume(batch []Arc) error { return f(batch) }

// Flush is a no-op.
func (f FuncSink) Flush() error { return nil }

// MultiSink fans every batch out to several sinks in order, so one
// generation pass can simultaneously write, count, and check. The first
// Consume error stops the stream; Flush always reaches every child —
// even when an earlier child's Flush errors, and even after a child's
// Consume already errored — so every sink gets its exactly-once Flush
// and buffered output is consistently finalized. The first Flush error
// is returned.
type MultiSink []Sink

// Consume delivers the batch to each sink in order.
func (m MultiSink) Consume(batch []Arc) error {
	for _, s := range m {
		if err := s.Consume(batch); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes every sink — an error from one child never skips the
// rest — and returns the first error.
func (m MultiSink) Flush() error {
	var first error
	for _, s := range m {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Fork returns a MultiSink of the children's forks, or nil when a child
// is not a ForkSink or declines: one order-bound child (a writer, a
// digest) keeps the whole fan-out on the ordered path.
func (m MultiSink) Fork() Sink {
	part := make(MultiSink, len(m))
	for i, s := range m {
		f, ok := s.(ForkSink)
		if !ok {
			return nil
		}
		if part[i] = f.Fork(); part[i] == nil {
			return nil
		}
	}
	return part
}

// Join joins every child with its column of the parts — an error from
// one child never skips the rest — and returns the first error.
func (m MultiSink) Join(parts []Sink) error {
	var first error
	col := make([]Sink, len(parts))
	for i, s := range m {
		for j, p := range parts {
			col[j] = p.(MultiSink)[i]
		}
		if err := s.(ForkSink).Join(col); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DedupCheckSink verifies that the stream is strictly increasing in
// lexicographic (U, V) order — the canonical EachArc order — which implies
// the stream is duplicate-free. It errors on the first violation.
type DedupCheckSink struct {
	first, prev Arc // first and latest arc seen, valid once started
	started     bool
}

// inOrder reports whether a may directly follow prev in the canonical
// stream.
func inOrder(prev, a Arc) bool {
	return a.U > prev.U || (a.U == prev.U && a.V > prev.V)
}

func orderViolation(prev, a Arc) error {
	return fmt.Errorf("stream: order violation: (%d,%d) after (%d,%d)", a.U, a.V, prev.U, prev.V)
}

// Consume checks each arc against its predecessor. The predecessor
// lives in a local for the length of the batch: stored through d, every
// arc of the 10⁸-arc streams this sink rides along would pay a store
// and a reload.
func (d *DedupCheckSink) Consume(batch []Arc) error {
	if len(batch) == 0 {
		return nil
	}
	prev := d.prev
	if !d.started {
		d.first, prev, d.started = batch[0], batch[0], true
		batch = batch[1:]
	}
	for _, a := range batch {
		if !inOrder(prev, a) {
			d.prev = prev
			return orderViolation(prev, a)
		}
		prev = a
	}
	d.prev = prev
	return nil
}

// Flush is a no-op.
func (d *DedupCheckSink) Flush() error { return nil }

// Fork returns an empty checker for one shard; its first and last arcs
// are what Join needs of it.
func (d *DedupCheckSink) Fork() Sink { return &DedupCheckSink{} }

// Join re-checks every boundary the parts were split at: each part's
// first arc must follow the last arc before it (parts that saw no arc
// have no boundary), exactly the comparison Consume would have made
// there. A violation is reported in Consume's words.
func (d *DedupCheckSink) Join(parts []Sink) error {
	for _, p := range parts {
		q := p.(*DedupCheckSink)
		if !q.started {
			continue
		}
		if !d.started {
			d.first, d.started = q.first, true
		} else if !inOrder(d.prev, q.first) {
			return orderViolation(d.prev, q.first)
		}
		d.prev = q.prev
	}
	return nil
}

// DegreeHistogramSink accumulates the out-degree histogram of the stream's
// source vertices. It relies on the canonical stream order, in which all
// arcs out of a vertex are consecutive: a run of equal U values of length
// d contributes one vertex of out-degree d. Vertices with no out-arcs do
// not appear in the stream and therefore not in the histogram.
type DegreeHistogramSink struct {
	// Counts maps out-degree to the number of source vertices with that
	// out-degree. Populated incrementally; complete after Flush.
	Counts map[int64]int64

	cur     int64 // current source vertex
	run     int64 // arcs seen for cur
	started bool

	// A fork sees one shard, and a vertex's run may begin in the shard
	// before it and continue into the one after: the fork keeps its first
	// run apart (headU, headRun; headRun is 0 until a second run starts)
	// and leaves its last run (cur, run) open through Flush, for Join to
	// merge with the neighbours'.
	fork           bool
	headU, headRun int64
}

// Consume extends the current run or closes it and starts a new one.
func (h *DegreeHistogramSink) Consume(batch []Arc) error {
	for _, a := range batch {
		if h.started && a.U == h.cur {
			h.run++
			continue
		}
		if h.fork && h.started && h.headRun == 0 {
			h.headU, h.headRun = h.cur, h.run
		} else {
			h.closeRun()
		}
		h.cur = a.U
		h.run = 1
		h.started = true
	}
	return nil
}

// closeRun counts the open run, if there is one.
func (h *DegreeHistogramSink) closeRun() {
	if !h.started {
		return
	}
	if h.Counts == nil {
		h.Counts = make(map[int64]int64)
	}
	h.Counts[h.run]++
}

// Flush closes the final run; a fork's stays open for Join.
func (h *DegreeHistogramSink) Flush() error {
	if !h.fork {
		h.closeRun()
		h.started = false
		h.run = 0
	}
	return nil
}

// Fork returns an empty histogram for one shard.
func (h *DegreeHistogramSink) Fork() Sink { return &DegreeHistogramSink{fork: true} }

// Join replays the parts onto h's open run in shard order: a part's
// first run extends h's when both are the same vertex, its inner runs
// are already counted, and its last run becomes h's open one — closed
// by the next part or by Flush.
func (h *DegreeHistogramSink) Join(parts []Sink) error {
	for _, p := range parts {
		q := p.(*DegreeHistogramSink)
		if !q.started {
			continue
		}
		firstU, firstRun := q.cur, q.run
		if q.headRun > 0 {
			firstU, firstRun = q.headU, q.headRun
		}
		if h.started && h.cur == firstU {
			h.run += firstRun
		} else {
			h.closeRun()
			h.cur, h.run, h.started = firstU, firstRun, true
		}
		if q.headRun == 0 {
			continue // one run in the whole part: it stays open
		}
		h.closeRun()
		for d, c := range q.Counts {
			h.Counts[d] += c
		}
		h.cur, h.run = q.cur, q.run
	}
	return nil
}
