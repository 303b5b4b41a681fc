package main

import (
	"fmt"
	"regexp"
	"strconv"
	"time"

	"kronvalid"
	"kronvalid/internal/gio"
	"kronvalid/internal/rng"
	"kronvalid/internal/spec"
	"kronvalid/internal/stream"
)

// kron-truth is the paper's own workflow at a scale no machine
// materialises: two factor specs → factors → every closed-form triangle
// statistic of the product → one contiguous slice of the product stream
// (one PE's share) through the ordered driver into a count and an order
// check → sampled validation of the formulas.

// sliceSource presents shards [first, first+n) of a Source as a Source
// of its own, so drivers and timing wrappers need no special case for
// "part of a stream".
type sliceSource struct {
	stream.Source
	first, n int
}

func (s sliceSource) Name() string {
	return fmt.Sprintf("%s[shards %d..%d)", s.Source.Name(), s.first, s.first+s.n)
}
func (s sliceSource) Shards() int                      { return s.n }
func (s sliceSource) ShardSize(w int) int64            { return s.Source.ShardSize(s.first + w) }
func (s sliceSource) VertexRange(w int) (lo, hi int64) { return s.Source.VertexRange(s.first + w) }
func (s sliceSource) TotalArcs() int64 {
	var sum int64
	for w := 0; w < s.n; w++ {
		sum += s.ShardSize(w)
	}
	return sum
}
func (s sliceSource) EachShardBatch(w int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	s.Source.EachShardBatch(s.first+w, buf, emit)
}

// chooseSlice picks a contiguous run of shards holding at least minArcs
// arcs, starting at a seed-chosen shard from which such a run exists.
func chooseSlice(src stream.Source, minArcs int64, seed uint64) (sliceSource, error) {
	shards := src.Shards()
	// lastStart is the largest start whose suffix still holds minArcs.
	lastStart, suffix := -1, int64(0)
	for w := shards - 1; w >= 0; w-- {
		suffix += src.ShardSize(w)
		if suffix >= minArcs {
			lastStart = w
			break
		}
	}
	if lastStart < 0 {
		return sliceSource{}, fmt.Errorf("source has %d arcs, slice needs %d", suffix, minArcs)
	}
	first := rng.New(seed).Intn(lastStart + 1)
	n, sum := 0, int64(0)
	for sum < minArcs {
		sum += src.ShardSize(first + n)
		n++
	}
	return sliceSource{Source: src, first: first, n: n}, nil
}

// prefixOf returns the shortest prefix of sl holding at least minArcs.
func prefixOf(sl sliceSource, minArcs int64) sliceSource {
	n, sum := 0, int64(0)
	for n < sl.n && sum < minArcs {
		sum += sl.ShardSize(n)
		n++
	}
	return sliceSource{Source: sl.Source, first: sl.first, n: n}
}

// truthTiming is one kron-truth operation, phase by phase.
type truthTiming struct {
	start                                        time.Time
	build, stats, forms, deliver, validate, wall time.Duration
	arcs                                         int64
	wedgeChecks                                  int64
	checks                                       int
	ok                                           bool
}

type truthRun struct {
	c            *config
	res          *result
	specA, specB string
	tr           *tracer
}

var checkCount = regexp.MustCompile(`\((\d+) `)

// operation runs one complete kron-truth operation. With a tracer it
// streams through the timing wrappers and records spans for repetition
// rep; the checks sit between the timed phases, not inside them.
func (t *truthRun) operation(rep int, traced bool) (truthTiming, error) {
	c, sz := t.c, t.c.sizes()
	tt := truthTiming{start: time.Now(), ok: true}
	a, err := spec.Parse(t.specA)
	if err != nil {
		return tt, err
	}
	b, err := spec.Parse(t.specB)
	if err != nil {
		return tt, err
	}
	p, err := kronvalid.NewProduct(a, b)
	if err != nil {
		return tt, err
	}
	full := kronvalid.ProductSource(p, sz.truthShards)
	t1 := time.Now()

	sa, sb := kronvalid.ComputeFactorStats(a), kronvalid.ComputeFactorStats(b)
	t2 := time.Now()
	total, err := kronvalid.TriangleTotal(p)
	if err != nil {
		return tt, err
	}
	vp, err := kronvalid.VertexParticipation(p)
	if err != nil {
		return tt, err
	}
	vpTotal, err := vp.Total()
	if err != nil {
		return tt, err
	}
	ep, err := kronvalid.EdgeParticipation(p)
	if err != nil {
		return tt, err
	}
	epTotal, err := ep.Total()
	if err != nil {
		return tt, err
	}
	wedges, err := kronvalid.ProductWedgeCount(p)
	if err != nil {
		return tt, err
	}
	clustering, err := kronvalid.ProductGlobalClustering(p)
	if err != nil {
		return tt, err
	}
	t3 := time.Now()

	sl, err := chooseSlice(full, sz.truthSlice, c.seed)
	if err != nil {
		return tt, err
	}
	var src stream.Source = sl
	var count stream.CountSink
	var order stream.DedupCheckSink
	var sink stream.Sink = stream.MultiSink{&count, &order}
	var timing *timedSource
	var tsink *timedSink
	if traced {
		src, timing = wrapSource(sl)
		tsink = &timedSink{inner: sink}
		sink = tsink
	}
	t4 := time.Now()
	delivered, streamErr := stream.RunContext(bg, src.Shards(), src.EachShardBatch, sink, stream.Options{Workers: c.procs})
	t5 := time.Now()

	report, err := kronvalid.ValidateSampled(p, sz.truthSamples, sz.truthSamples, 1<<20, c.seed)
	t6 := time.Now()
	if err != nil {
		return tt, err
	}

	tt.build, tt.stats, tt.forms = t1.Sub(tt.start), t2.Sub(t1), t3.Sub(t2)
	tt.deliver, tt.validate = t5.Sub(t4), t6.Sub(t5)
	// Choosing the slice (t3..t4) is the harness's work, not the program's.
	tt.wall = t6.Sub(tt.start) - t4.Sub(t3)
	tt.arcs = delivered
	tt.wedgeChecks = sa.WedgeChecks + sb.WedgeChecks
	for _, ch := range report.Checks {
		if m := checkCount.FindStringSubmatch(ch.Name); m != nil {
			n, _ := strconv.Atoi(m[1])
			tt.checks += n
		}
	}

	if streamErr != nil {
		t.res.fail("rep %d: slice stream: %v", rep, streamErr)
		tt.ok = false
	}
	if want := sl.TotalArcs(); delivered != want || count.N != want {
		t.res.fail("rep %d: slice delivered %d arcs (counted %d), shard sizes sum to %d", rep, delivered, count.N, want)
		tt.ok = false
	}
	if vpTotal != 3*total || total <= 0 || epTotal <= 0 || wedges <= 0 || clustering <= 0 {
		t.res.fail("rep %d: closed forms disagree: τ=%d Σt=%d ΣΔ=%d wedges=%d cc=%g", rep, total, vpTotal, epTotal, wedges, clustering)
		tt.ok = false
	}
	if !report.AllPassed() {
		t.res.fail("rep %d: sampled validation failed: %v", rep, report.Failures())
		tt.ok = false
	}

	if traced {
		root := t.tr.interval(0, "operation", rep, tt.start, t6)
		truth := t.tr.interval(root, "truth", rep, tt.start, t3)
		t.tr.interval(truth, "factor_build", rep, tt.start, t1)
		t.tr.interval(truth, "factor_stats", rep, t1, t2)
		t.tr.interval(truth, "closed_forms", rep, t2, t3)
		recordOrdered(t.tr, root, "stream", rep, timing, tsink, t4, t5)
		t.tr.interval(root, "validate", rep, t5, t6)
	}
	return tt, nil
}

// recordOrdered turns the wrappers' totals of one ordered-driver run
// into spans: the run; per shard its generation and, under that, the
// time its emit was blocked on the consumer; the consumer's busy time.
func recordOrdered(tr *tracer, parent int, name string, rep int, src *timedSource, sink *timedSink, start, end time.Time) {
	run := tr.newSpan(parent, name, rep, start, end, end.Sub(start))
	run.Arcs = sink.arcs
	runID := tr.add(run)
	for w := range src.shards {
		st := &src.shards[w]
		gen := tr.newSpan(runID, "gen", rep, st.start, st.end, st.wall())
		gen.Index, gen.Arcs = w, st.arcs
		blocked := tr.newSpan(tr.add(gen), "emit_blocked", rep, st.start, st.end, st.emit)
		blocked.Index = w
		tr.add(blocked)
	}
	consumer := tr.newSpan(runID, "sink", rep, start, end, sink.busy)
	consumer.Arcs = sink.arcs
	tr.add(consumer)
}

// prefixDigest streams a prefix of the slice through the ordered driver
// into the digest sink.
func prefixDigest(sl sliceSource, workers int) (string, error) {
	sink := gio.NewArcDigestSink(sl.NumVertices(), sl.TotalArcs())
	if _, err := stream.RunContext(bg, sl.Shards(), sl.EachShardBatch, sink, stream.Options{Workers: workers}); err != nil {
		return "", err
	}
	return sink.Digest()
}

func runKronTruth(c *config) (*result, error) {
	sz := c.sizes()
	t := &truthRun{c: c, res: newResult(c),
		specA: webSpec(sz.truthFactorN, c.seedFor(0)), specB: webSpec(sz.truthFactorN, c.seedFor(1))}
	t.res.Specs = []string{t.specA, t.specB}
	if c.trace {
		t.tr = newTracer(c.workload)
	}

	warm, err := t.operation(0, false)
	if err != nil {
		return nil, err
	}
	// On the warm-up the ordered driver must deliver the same bytes at
	// one worker and at W.
	p, err := buildProduct(t.specA, t.specB)
	if err != nil {
		return nil, err
	}
	sl, err := chooseSlice(kronvalid.ProductSource(p, sz.truthShards), sz.truthSlice, c.seed)
	if err != nil {
		return nil, err
	}
	prefix := prefixOf(sl, sz.truthPrefix)
	d1, err := prefixDigest(prefix, 1)
	if err != nil {
		return nil, err
	}
	dn, err := prefixDigest(prefix, c.procs)
	if err != nil {
		return nil, err
	}
	if d1 != dn {
		t.res.fail("slice prefix digests %s at 1 worker, %s at %d", d1, dn, c.procs)
		warm.ok = false
	}
	t.res.count(warm.ok)

	if c.trace {
		return t.runTraced(sl)
	}

	var setups, truths, walls, delivers []float64
	var arcs int64
	rp := c.newRepeater(1, sz.minReps)
	for rp.next() {
		tt, err := t.operation(rp.done+1, false)
		if err != nil {
			return nil, err
		}
		rp.finished(tt.wall)
		t.res.count(tt.ok)
		setups = append(setups, seconds(tt.build))
		truths = append(truths, seconds(tt.build+tt.stats+tt.forms))
		walls = append(walls, seconds(tt.wall))
		delivers = append(delivers, seconds(tt.deliver))
		arcs = tt.arcs
	}
	t.res.Reps = rp.done
	setups, err = timeEach(setups, sz.minSetups, func() error {
		p, err := buildProduct(t.specA, t.specB)
		if err == nil {
			kronvalid.ProductSource(p, sz.truthShards)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t.res.setSamples("setup_s", setups)
	t.res.setSamples("truth_s", truths)
	t.res.setSamples("wall_s", walls)
	t.res.set("arcs_per_s", float64(arcs)/median(delivers))
	fillUndefined(t.res)
	return t.res, nil
}

func (t *truthRun) runTraced(sl sliceSource) (*result, error) {
	c, res := t.c, t.res
	var plainWalls, tracedWalls []float64
	var builds, stats, forms, validates, delivers []float64
	var last truthTiming
	rp := c.newRepeater(0.45, 1)
	for rp.next() {
		plain, err := t.operation(rp.done+1, false)
		if err != nil {
			return nil, err
		}
		res.count(plain.ok)
		if last, err = t.operation(rp.done+1, true); err != nil {
			return nil, err
		}
		res.count(last.ok)
		plainWalls = append(plainWalls, seconds(plain.wall))
		tracedWalls = append(tracedWalls, seconds(last.wall))
		builds = append(builds, seconds(last.build))
		stats = append(stats, seconds(last.stats))
		forms = append(forms, seconds(last.forms))
		delivers = append(delivers, seconds(last.deliver))
		validates = append(validates, seconds(last.validate))
		rp.finished(plain.wall + last.wall)
	}
	res.Reps = rp.done
	res.set("trace_overhead_frac", median(tracedWalls)/median(plainWalls)-1)
	res.setSamples("gen.factor_build_s", builds)
	res.setSamples("triangle.factor_stats_s", stats)
	res.set("triangle.wedge_checks", float64(last.wedgeChecks))
	res.setSamples("kron.closed_forms_s", forms)
	res.setSamples("verify.sampled_s", validates)
	res.set("verify.checks", float64(last.checks))
	res.set("trace.attributed_frac",
		seconds(last.build+last.stats+last.forms+last.deliver+last.validate)/seconds(last.wall))

	// Generation alone, then the ordered driver at one worker and at W
	// over timed source and sink.
	arcs, d, _ := generateOnly(sl)
	res.set("kron.gen_arcs_per_s", per(float64(arcs), d))
	ordered := func(workers int) (wall time.Duration, src *timedSource, sink *timedSink, err error) {
		wrapped, src := wrapSource(sl)
		var count stream.CountSink
		var order stream.DedupCheckSink
		sink = &timedSink{inner: stream.MultiSink{&count, &order}}
		t0 := time.Now()
		_, err = stream.RunContext(bg, wrapped.Shards(), wrapped.EachShardBatch, sink, stream.Options{Workers: workers})
		t1 := time.Now()
		recordOrdered(t.tr, 0, fmt.Sprintf("ordered_w%d", workers), rp.done+1, src, sink, t0, t1)
		return t1.Sub(t0), src, sink, err
	}
	wall1, src1, sink1, err := ordered(1)
	if err != nil {
		return nil, err
	}
	var genSelf time.Duration
	for w := range src1.shards {
		genSelf += src1.shards[w].self()
	}
	wallN, srcN, sinkN, err := ordered(c.procs)
	if err != nil {
		return nil, err
	}
	var blocked time.Duration
	for w := range srcN.shards {
		blocked += srcN.shards[w].emit
	}
	res.set("stream.ordered_w1_arcs_per_s", per(float64(arcs), wall1))
	res.set("stream.ordered_wn_arcs_per_s", per(float64(arcs), wallN))
	res.set("stream.ordered_speedup_wn", per(seconds(wall1), wallN))
	res.set("stream.producer_blocked_s", seconds(blocked))
	res.set("stream.consumer_idle_s", seconds(sinkN.idle))
	res.set("stream.gen_self_s", seconds(genSelf))
	res.set("stream.driver_self_s", seconds(wall1-genSelf-sink1.busy))
	return res, t.tr.writeTo(c.traceOut)
}
