package main

import (
	"math"
	"time"

	"kronvalid"
	"kronvalid/internal/gio"
	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// Isolated calls into single layers, made by the traced run of the
// workload each layer matters to. Every probe takes three samples and
// reports their median.
const probeSamples = 3

// pregenerate collects the first n arcs of src as pipeline-sized
// batches, so an encoder can be timed with no generator beside it.
func pregenerate(src stream.Source, n int) [][]stream.Arc {
	all := make([]stream.Arc, 0, n)
	gen := shardGenOf(src)
	buf := make([]stream.Arc, 0, stream.DefaultBatchSize)
	for w := 0; w < src.Shards() && len(all) < n; w++ {
		gen(w, buf, func(full []stream.Arc) []stream.Arc {
			if room := n - len(all); len(full) > room {
				full = full[:room]
			}
			all = append(all, full...)
			if len(all) >= n {
				return nil
			}
			return full[:0]
		})
	}
	var batches [][]stream.Arc
	for len(all) > 0 {
		k := min(len(all), stream.DefaultBatchSize)
		batches = append(batches, all[:k:k])
		all = all[k:]
	}
	return batches
}

// countingDiscard is io.Discard that remembers how much it was given.
type countingDiscard struct{ n int64 }

func (w *countingDiscard) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func consumeAll(sink stream.Sink, batches [][]stream.Arc) (arcs int64, d time.Duration, err error) {
	t0 := time.Now()
	for _, b := range batches {
		if err = sink.Consume(b); err != nil {
			return 0, 0, err
		}
		arcs += int64(len(b))
	}
	err = sink.Flush()
	return arcs, time.Since(t0), err
}

// encoderProbes times the binary or the TSV encoder (and, beside TSV,
// the digest sink) over pre-generated batches into a discarding writer.
func encoderProbes(c *config, res *result, src stream.Source, binary bool) error {
	batches := pregenerate(src, c.sizes().probeArcs)
	var rates, digests []float64
	for i := 0; i < probeSamples; i++ {
		var w countingDiscard
		var enc stream.Sink = gio.NewArcTextWriter(&w)
		if binary {
			enc = gio.NewArcBinaryWriter(&w)
		}
		arcs, d, err := consumeAll(enc, batches)
		if err != nil {
			return err
		}
		rates = append(rates, per(float64(w.n)/1e6, d))
		if binary {
			continue
		}
		res.set("gio.tsv_bytes_per_arc", float64(w.n)/float64(arcs))
		_, d, err = consumeAll(gio.NewArcDigestSink(src.NumVertices(), arcs), batches)
		if err != nil {
			return err
		}
		digests = append(digests, per(float64(arcs), d))
	}
	if binary {
		res.setSamples("gio.bin_encode_mb_per_s", rates)
		return nil
	}
	res.setSamples("gio.tsv_encode_mb_per_s", rates)
	res.setSamples("gio.digest_arcs_per_s", digests)
	return nil
}

// csrProbes builds the source's CSR with both schemes. One sample each:
// the builds are allocation-bound and recorded ungated.
func csrProbes(res *result, src kronvalid.Source) error {
	for _, twoPass := range []bool{true, false} {
		t0 := time.Now()
		g, err := kronvalid.ToCSR(bg, src, kronvalid.WithTwoPass(twoPass))
		if err != nil {
			return err
		}
		name := "csr.onepass_arcs_per_s"
		if twoPass {
			name = "csr.twopass_arcs_per_s"
		}
		res.set(name, per(float64(g.NumArcs()), time.Since(t0)))
	}
	return nil
}

var rngSink float64 // keeps the probe loops' results alive

// rngProbes times the three batched draws the model layer is built on.
func rngProbes(c *config, res *result) {
	sz := c.sizes()
	g := rng.New(c.seed)
	u := make([]uint64, sz.probeRNG)
	f := make([]float64, sz.probeRNG)
	log1mP := math.Log1p(-0.01)
	draws := float64(sz.probeRNG * sz.probeRNGLoops)
	var fill, unit, geo []float64
	for i := 0; i < probeSamples; i++ {
		t0 := time.Now()
		for l := 0; l < sz.probeRNGLoops; l++ {
			g.Fill(u)
		}
		fill = append(fill, per(draws, time.Since(t0)))
		t0 = time.Now()
		for l := 0; l < sz.probeRNGLoops; l++ {
			g.UnitUniform(f)
		}
		unit = append(unit, per(draws, time.Since(t0)))
		t0 = time.Now()
		var sum int64
		for n := 0; n < sz.probeRNG; n++ {
			sum += g.GeometricLog(log1mP)
		}
		geo = append(geo, per(float64(sz.probeRNG), time.Since(t0)))
		rngSink += float64(sum) + float64(u[0]) + f[0]
	}
	res.setSamples("rng.fill_u64_per_s", fill)
	res.setSamples("rng.unit_uniform_per_s", unit)
	res.setSamples("rng.geometric_per_s", geo)
}
