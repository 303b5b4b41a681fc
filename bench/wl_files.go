package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kronvalid"
	"kronvalid/internal/distgen"
	"kronvalid/internal/gio"
	"kronvalid/internal/spec"
	"kronvalid/internal/stream"
)

// The three file workloads (kron-tsv, hash-bin, geo-bin) are the
// `krongen|gengen -shards W -out DIR [-binary]` path: spec strings →
// Source → WriteShards, one part after another, shard files overwritten
// in place between repetitions. One operation is one pass over all
// parts.

// part is one generator of a file workload.
type part struct {
	label string   // output sub-directory and trace label: "kron" or the model kind
	specs []string // the generated spec strings — all the program under test sees
	build func() (kronvalid.Source, error)
}

func kronPart(specA, specB string, shards int) part {
	return part{label: "kron", specs: []string{specA, specB}, build: func() (kronvalid.Source, error) {
		p, err := buildProduct(specA, specB)
		if err != nil {
			return nil, err
		}
		return kronvalid.ProductSource(p, shards), nil
	}}
}

func buildProduct(specA, specB string) (*kronvalid.Product, error) {
	a, err := spec.Parse(specA)
	if err != nil {
		return nil, err
	}
	b, err := spec.Parse(specB)
	if err != nil {
		return nil, err
	}
	return kronvalid.NewProduct(a, b)
}

func modelPart(modelSpec string, shards int) part {
	return part{label: kindOf(modelSpec), specs: []string{modelSpec}, build: func() (kronvalid.Source, error) {
		g, err := kronvalid.NewGenerator(modelSpec)
		if err != nil {
			return nil, err
		}
		return kronvalid.ModelSource(g, shards), nil
	}}
}

func webSpec(n int, seed uint64) string { return fmt.Sprintf("web:n=%d,m=4,seed=%d", n, seed) }

func fileParts(c *config) (parts []part, binary bool) {
	sz := c.sizes()
	switch c.workload {
	case wlKronTSV:
		return []part{kronPart(webSpec(sz.tsvAN, c.seedFor(0)), webSpec(sz.tsvBN, c.seedFor(1)), c.procs)}, false
	case wlHashBin:
		for i, s := range sz.hashSpecs {
			parts = append(parts, modelPart(withSeed(s, c.seedFor(i)), c.procs))
		}
	case wlGeoBin:
		for i, s := range sz.geoSpecs {
			parts = append(parts, modelPart(withSeed(s, c.seedFor(i)), c.procs))
		}
	}
	return parts, true
}

// reference is what a part's output is checked against: the arc count
// and byte stream of a 1-worker Stream into the same encoder.
type reference struct {
	arcs int64
	sum  streamSum
}

// fileRun is the state of one file-workload run.
type fileRun struct {
	c      *config
	res    *result
	parts  []part
	binary bool
	dirs   []string
	refs   []reference
	tr     *tracer
}

// passTiming is what one pass over the parts measured. Set-up and
// delivery are timed per part and summed, so the checks between parts
// stay outside the timed regions.
type passTiming struct {
	setup, deliver time.Duration
	perPart        []time.Duration // delivery time of each part
	arcs           int64
	manifests      []*kronvalid.ShardManifest
}

func (p *passTiming) wall() time.Duration { return p.setup + p.deliver }

func (f *fileRun) encoder(w *sumWriter) stream.Sink {
	if f.binary {
		return gio.NewArcBinaryWriter(w)
	}
	return gio.NewArcTextWriter(w)
}

func (f *fileRun) writeOpts(workers int) []kronvalid.Option {
	return []kronvalid.Option{kronvalid.WithWorkers(workers), kronvalid.WithBinary(f.binary)}
}

// pass runs one operation: every part's set-up and WriteShards call.
func (f *fileRun) pass() (passTiming, error) {
	var pt passTiming
	for i, p := range f.parts {
		t0 := time.Now()
		src, err := p.build()
		if err != nil {
			return pt, fmt.Errorf("%s: %w", p.label, err)
		}
		t1 := time.Now()
		m, err := kronvalid.WriteShards(bg, f.dirs[i], src, f.writeOpts(f.c.procs)...)
		t2 := time.Now()
		if err != nil {
			return pt, fmt.Errorf("%s: %w", p.label, err)
		}
		pt.setup += t1.Sub(t0)
		pt.deliver += t2.Sub(t1)
		pt.perPart = append(pt.perPart, t2.Sub(t1))
		pt.arcs += m.TotalArcs
		pt.manifests = append(pt.manifests, m)
	}
	return pt, nil
}

// computeRefs streams every part at one worker into its encoder and a
// CRC; parts run side by side because this is outside any timed region.
func (f *fileRun) computeRefs() error {
	f.refs = make([]reference, len(f.parts))
	return forEachLimit(len(f.parts), f.c.procs, func(i int) error {
		src, err := f.parts[i].build()
		if err != nil {
			return err
		}
		var w sumWriter
		n, err := kronvalid.Stream(bg, src, f.encoder(&w), kronvalid.WithWorkers(1))
		if err != nil {
			return fmt.Errorf("%s: reference stream: %w", f.parts[i].label, err)
		}
		f.refs[i] = reference{arcs: n, sum: w.s}
		return nil
	})
}

// check verifies one pass's output: manifest total and byte size on
// every repetition, and with deep also the CRC-32C of the concatenated
// shards. It returns false after recording what differed.
func (f *fileRun) check(rep int, manifests []*kronvalid.ShardManifest, deep bool) bool {
	ok := true
	for i, m := range manifests {
		ref := f.refs[i]
		paths := manifestPaths(f.dirs[i], m)
		if m.TotalArcs != ref.arcs {
			f.res.fail("rep %d %s: manifest has %d arcs, reference stream %d", rep, f.parts[i].label, m.TotalArcs, ref.arcs)
			ok = false
		}
		size, err := sizeOfFiles(paths)
		if err != nil || size != ref.sum.bytes {
			f.res.fail("rep %d %s: shards hold %d bytes (%v), reference %d", rep, f.parts[i].label, size, err, ref.sum.bytes)
			ok = false
		}
		if !deep {
			continue
		}
		got, err := sumFiles(paths)
		if err != nil || got != ref.sum {
			f.res.fail("rep %d %s: shard CRC-32C %08x/%d bytes (%v), reference %08x/%d", rep, f.parts[i].label,
				got.crc, got.bytes, err, ref.sum.crc, ref.sum.bytes)
			ok = false
		}
	}
	return ok
}

func runFiles(c *config) (*result, error) {
	parts, binary := fileParts(c)
	f := &fileRun{c: c, res: newResult(c), parts: parts, binary: binary}
	for _, p := range parts {
		f.res.Specs = append(f.res.Specs, p.specs...)
		dir := filepath.Join(c.dir, p.label)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f.dirs = append(f.dirs, dir)
	}
	if c.trace {
		f.tr = newTracer(c.workload)
		return f.runTraced()
	}

	// Discarded warm-up: first-touch page faults, lazy set-up, file creation.
	warm, err := f.pass()
	if err != nil {
		return nil, err
	}
	if err := f.computeRefs(); err != nil {
		return nil, err
	}
	f.res.count(f.check(0, warm.manifests, true))

	var setups, walls, delivers []float64
	var last passTiming
	rp := c.newRepeater(1, c.sizes().minReps)
	for rp.next() {
		if rp.done > 0 { // not the last repetition: cheap checks only
			f.res.count(f.check(rp.done, last.manifests, false))
		}
		pt, err := f.pass()
		if err != nil {
			return nil, err
		}
		rp.finished(pt.wall())
		setups = append(setups, seconds(pt.setup))
		walls = append(walls, seconds(pt.wall()))
		delivers = append(delivers, seconds(pt.deliver))
		last = pt
	}
	f.res.count(f.check(rp.done, last.manifests, true))
	f.res.Reps = rp.done

	// Set-up is cheap next to a pass; collect enough samples for a
	// steady median.
	setups, err = timeEach(setups, c.sizes().minSetups, func() error {
		for _, p := range parts {
			if _, err := p.build(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.res.setSamples("setup_s", setups)
	f.res.setSamples("wall_s", walls)
	f.res.set("arcs_per_s", float64(last.arcs)/median(delivers))
	fillUndefined(f.res)
	return f.res, nil
}

// fillUndefined gives the end-to-end metrics a workload has no quantity
// of their own for the workload's wall_s (see endToEnd in names.go).
func fillUndefined(res *result) {
	wall := res.Metrics["wall_s"]
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.Name]; ok || d.Name == "peak_rss_mb" {
			continue
		}
		v := wall
		v.Unit = d.Unit
		if d.Unit == "ms" {
			v.Value *= 1000
			if v.Q1 != nil {
				q1, q3 := *v.Q1*1000, *v.Q3*1000
				v.Q1, v.Q3 = &q1, &q3
			}
		}
		res.Metrics[d.Name] = v
	}
}

// ---- traced run ----

// fileSink is the per-shard sink of the traced pass: encoder → timed
// writer → shard file, closed by the driver after Flush exactly as
// WriteShards' own sink is.
type fileSink struct {
	*timedSink
	w *timedWriter
	f *os.File
}

func (s fileSink) Close() error { return s.f.Close() }

// blockingPath sums, over the parts of one traced pass, the self times
// along the slowest shard of each part — the shard that sets the part's
// wall time under the per-shard driver — and the file writes of all
// shards.
type blockingPath struct {
	shardWall, genSelf, encodeSelf, write time.Duration
	writeBusyAll                          time.Duration
	writeBytesAll                         int64
}

// tracedPass is pass with the pipeline WriteShards builds —
// stream.RunPerShardContext over gio encoders over shard files —
// composed here, so that timing wrappers sit on every layer boundary.
// It writes no manifest; the shard files are byte-identical.
func (f *fileRun) tracedPass(rep int) (passTiming, blockingPath, error) {
	var pt passTiming
	var bp blockingPath
	repStart := time.Now()
	type partSpans struct {
		label      string
		t0, t1, t2 time.Time
		src        *timedSource
		sinks      []fileSink
	}
	var recorded []partSpans
	for i, p := range f.parts {
		t0 := time.Now()
		plain, err := p.build()
		if err != nil {
			return pt, bp, err
		}
		src, timing := wrapSource(plain)
		t1 := time.Now()
		sinks := make([]fileSink, src.Shards())
		counts, err := stream.RunPerShardContext(bg, src.Shards(), src.EachShardBatch,
			func(w int) (stream.Sink, error) {
				file, err := os.Create(filepath.Join(f.dirs[i], distgen.ShardFileName(w, f.binary)))
				if err != nil {
					return nil, err
				}
				tw := &timedWriter{w: file}
				var enc stream.Sink = gio.NewArcTextWriter(tw)
				if f.binary {
					enc = gio.NewArcBinaryWriter(tw)
				}
				sinks[w] = fileSink{timedSink: &timedSink{inner: enc}, w: tw, f: file}
				return sinks[w], nil
			}, stream.Options{Workers: f.c.procs})
		t2 := time.Now()
		if err != nil {
			return pt, bp, fmt.Errorf("%s: traced pass: %w", p.label, err)
		}
		m := &kronvalid.ShardManifest{}
		for w, n := range counts {
			m.Shards = append(m.Shards, distgen.ShardInfo{Index: w, File: distgen.ShardFileName(w, f.binary), Arcs: n})
			m.TotalArcs += n
		}
		pt.setup += t1.Sub(t0)
		pt.deliver += t2.Sub(t1)
		pt.perPart = append(pt.perPart, t2.Sub(t1))
		pt.arcs += m.TotalArcs
		pt.manifests = append(pt.manifests, m)
		recorded = append(recorded, partSpans{p.label, t0, t1, t2, timing, sinks})
	}
	root := f.tr.interval(0, "pass", rep, repStart, time.Now())
	for _, ps := range recorded {
		setup := f.tr.newSpan(root, "setup", rep, ps.t0, ps.t1, ps.t1.Sub(ps.t0))
		setup.Part = ps.label
		f.tr.add(setup)
		deliver := f.tr.newSpan(root, "write_shards", rep, ps.t1, ps.t2, ps.t2.Sub(ps.t1))
		deliver.Part = ps.label
		deliverID := f.tr.add(deliver)
		slowest := 0
		for w := range ps.src.shards {
			st, sk := &ps.src.shards[w], ps.sinks[w]
			if st.wall() > ps.src.shards[slowest].wall() {
				slowest = w
			}
			bp.writeBusyAll += sk.w.busy
			bp.writeBytesAll += sk.w.bytes
			// The layers of one shard nest, each busy for part of the
			// shard's generation interval.
			layer := func(parent int, name string, busy time.Duration, arcs, bytes int64) int {
				sp := f.tr.newSpan(parent, name, rep, st.start, st.end, busy)
				sp.Part, sp.Index, sp.Arcs, sp.Bytes = ps.label, w, arcs, bytes
				return f.tr.add(sp)
			}
			gen := layer(deliverID, "gen", st.wall(), st.arcs, 0)
			emit := layer(gen, "emit", st.emit, st.arcs, 0)
			enc := layer(emit, "encode", sk.busy, sk.arcs, 0)
			layer(enc, "write", sk.w.busy, 0, sk.w.bytes)
		}
		st, sk := &ps.src.shards[slowest], ps.sinks[slowest]
		bp.shardWall += st.wall()
		bp.genSelf += st.self()
		bp.encodeSelf += sk.busy - sk.w.busy
		bp.write += sk.w.busy
	}
	return pt, bp, nil
}

// verbProbe runs the real WriteShards verb over a timed source and
// returns the verb's wall time with the slowest and mean shard times.
func (f *fileRun) verbProbe(i, workers int) (wall, slowest, mean time.Duration, err error) {
	plain, err := f.parts[i].build()
	if err != nil {
		return 0, 0, 0, err
	}
	src, timing := wrapSource(plain)
	t0 := time.Now()
	if _, err = kronvalid.WriteShards(bg, f.dirs[i], src, f.writeOpts(workers)...); err != nil {
		return 0, 0, 0, err
	}
	wall = time.Since(t0)
	var sum time.Duration
	for w := range timing.shards {
		d := timing.shards[w].wall()
		sum += d
		if d > slowest {
			slowest = d
		}
	}
	return wall, slowest, sum / time.Duration(len(timing.shards)), nil
}

// shardGenOf is the generator a single worker would run every shard of
// src through: the per-worker factory's when the source has one.
func shardGenOf(src stream.Source) stream.ShardGen {
	if fs, ok := src.(stream.FactorySource); ok {
		return fs.ShardGenFactory()()
	}
	return src.EachShardBatch
}

// generateOnly runs every shard of src on the calling goroutine into a
// discarding emit and returns arcs, time and heap allocations.
func generateOnly(src stream.Source) (arcs int64, d time.Duration, mallocs uint64) {
	gen := shardGenOf(src)
	buf := make([]stream.Arc, 0, stream.DefaultBatchSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for w := 0; w < src.Shards(); w++ {
		gen(w, buf, func(full []stream.Arc) []stream.Arc {
			arcs += int64(len(full))
			return full[:0]
		})
	}
	d = time.Since(t0)
	runtime.ReadMemStats(&after)
	return arcs, d, after.Mallocs - before.Mallocs
}

func (f *fileRun) runTraced() (*result, error) {
	c, res := f.c, f.res
	warm, err := f.pass()
	if err != nil {
		return nil, err
	}
	if err := f.computeRefs(); err != nil {
		return nil, err
	}
	f.res.count(f.check(0, warm.manifests, true))

	// Untraced and traced passes alternate, so both see the same host
	// conditions; their ratio is the tracing overhead.
	var plainWalls, tracedWalls []float64
	perPart := make([][]float64, len(f.parts))
	var last passTiming
	var bp blockingPath // of the last traced pass
	rp := c.newRepeater(0.45, 1)
	for rp.next() {
		pt, err := f.pass()
		if err != nil {
			return nil, err
		}
		plainWalls = append(plainWalls, seconds(pt.wall()))
		f.res.count(f.check(rp.done+1, pt.manifests, false))
		if last, bp, err = f.tracedPass(rp.done + 1); err != nil {
			return nil, err
		}
		tracedWalls = append(tracedWalls, seconds(last.wall()))
		for i, d := range last.perPart {
			perPart[i] = append(perPart[i], seconds(d))
		}
		rp.finished(pt.wall() + last.wall())
	}
	f.res.count(f.check(rp.done, last.manifests, true)) // the composed pipeline wrote the same bytes
	res.Reps = rp.done
	res.set("trace_overhead_frac", median(tracedWalls)/median(plainWalls)-1)

	res.set("stream.gen_self_s", seconds(bp.genSelf))
	res.set("gio.encode_self_s", seconds(bp.encodeSelf))
	res.set("distgen.file_write_s", seconds(bp.write))
	res.set("distgen.file_write_mb_per_s", per(float64(bp.writeBytesAll)/1e6, bp.writeBusyAll))
	res.set("trace.attributed_frac", per(seconds(bp.genSelf+bp.encodeSelf+bp.write), bp.shardWall))

	// The real verb at W workers and at one, over a timed source.
	var wallN, wall1, slowest, mean time.Duration
	for i := range f.parts {
		w, s, m, err := f.verbProbe(i, c.procs)
		if err != nil {
			return nil, err
		}
		wallN, slowest, mean = wallN+w, slowest+s, mean+m
		if w, _, _, err = f.verbProbe(i, 1); err != nil {
			return nil, err
		}
		wall1 += w
	}
	res.set("distgen.write_shards_s", seconds(wallN))
	res.set("distgen.commit_s", seconds(wallN-slowest))
	res.set("distgen.shard_skew", per(seconds(slowest), mean))
	res.set("stream.pershard_speedup_wn", per(seconds(wall1), wallN))

	for i, p := range f.parts {
		if p.label == "kron" {
			builds, err := timeEach(nil, c.sizes().minSetups, func() error {
				_, err := buildProduct(p.specs[0], p.specs[1])
				return err
			})
			if err != nil {
				return nil, err
			}
			res.setSamples("gen.factor_build_s", builds)
			continue
		}
		news, err := timeEach(nil, c.sizes().minSetups, func() error {
			_, err := kronvalid.NewGenerator(p.specs[0])
			return err
		})
		if err != nil {
			return nil, err
		}
		src, err := p.build()
		if err != nil {
			return nil, err
		}
		arcs, d, mallocs := generateOnly(src)
		if arcs != f.refs[i].arcs {
			res.fail("%s: generation alone gave %d arcs, reference stream %d", p.label, arcs, f.refs[i].arcs)
		}
		f.res.count(arcs == f.refs[i].arcs)
		pre := "model." + p.label
		res.setSamples(pre+".new_s", news)
		res.set(pre+".gen_arcs_per_s", per(float64(arcs), d))
		res.setSamples(pre+".wall_s", perPart[i])
		res.set(pre+".allocs", float64(mallocs))
		res.set(pre+".arcs", float64(arcs))
	}

	switch c.workload {
	case wlKronTSV:
		src, err := f.parts[0].build()
		if err != nil {
			return nil, err
		}
		if err := encoderProbes(c, res, src, false); err != nil {
			return nil, err
		}
		if err := csrProbes(res, src); err != nil {
			return nil, err
		}
	case wlHashBin:
		src, err := f.parts[0].build()
		if err != nil {
			return nil, err
		}
		if err := encoderProbes(c, res, src, true); err != nil {
			return nil, err
		}
		rngProbes(c, res)
	}
	return res, f.tr.writeTo(c.traceOut)
}
