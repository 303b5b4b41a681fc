package model

import (
	"kronvalid/internal/par"
	"kronvalid/internal/stream"
)

// Plan groups a generator's chunks into at most `shards` contiguous
// runs of near-equal expected work — the model-agnostic analogue of the
// Kronecker A-row-block plan. Because shard w simply replays chunks
// lo..hi-1 in order, the concatenation of all shard streams equals the
// concatenation of all chunk streams for every shard count: the
// communication-free byte-identity invariant, inherited rather than
// re-proven per model. Cross-chunk dependence (rgg neighbor cells, ba
// retraced chains) changes nothing here: a chunk *recomputes* foreign
// samples through their pure (seed, id) streams instead of receiving
// them, so replay order and shard grouping still never touch a random
// draw.
type Plan struct {
	g      Generator
	ranges [][2]int // chunk index range per shard
}

// NewPlan builds a plan for the given worker count (0 means
// GOMAXPROCS). The plan never influences a random draw — only which
// worker regenerates which chunks.
func NewPlan(g Generator, shards int) *Plan {
	chunks := g.Chunks()
	if shards <= 0 {
		shards = par.MaxWorkers()
	}
	if shards > chunks {
		shards = chunks
	}
	if shards < 1 {
		shards = 1
	}
	weights := make([]float64, chunks)
	for c := 0; c < chunks; c++ {
		weights[c] = float64(g.ChunkWeight(c))
	}
	ranges := weightedRuns(chunks, shards, func(c int) float64 { return weights[c] }, false)
	return &Plan{g: g, ranges: ranges}
}

// Generator returns the planned generator.
func (pl *Plan) Generator() Generator { return pl.g }

// Name returns the generator's canonical spec string — the stable
// stream.Source identity: feeding it back through New reproduces the
// identical stream, independent of how this plan groups chunks.
func (pl *Plan) Name() string { return pl.g.Name() }

// Shards returns the number of non-empty shards.
func (pl *Plan) Shards() int { return len(pl.ranges) }

// NumVertices returns the generator's vertex count.
func (pl *Plan) NumVertices() int64 { return pl.g.NumVertices() }

// TotalArcs returns the exact total arc count, or -1 when the model
// only fixes it in expectation.
func (pl *Plan) TotalArcs() int64 { return pl.g.NumArcs() }

// VertexRange returns the half-open source-vertex range owned by shard
// w: chunk ranges are contiguous and non-decreasing, so it spans from
// the first chunk's lo to the last chunk's hi.
func (pl *Plan) VertexRange(w int) (lo, hi int64) {
	r := pl.ranges[w]
	lo, _ = pl.g.ChunkRange(r[0])
	_, hi = pl.g.ChunkRange(r[1] - 1)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ShardSize returns the exact number of arcs shard w emits, or -1 when
// the model cannot fix per-chunk counts.
func (pl *Plan) ShardSize(w int) int64 {
	r := pl.ranges[w]
	var sum int64
	for c := r[0]; c < r[1]; c++ {
		n := pl.g.ChunkArcs(c)
		if n < 0 {
			return -1
		}
		sum += n
	}
	return sum
}

// EachShardBatch streams shard w — its chunks replayed in index order —
// under the stream.ShardGen emit contract. Any worker can regenerate
// any shard at any time. Each call runs on a fresh worker; drivers that
// execute many shards per goroutine should prefer ShardGenFactory so the
// worker's scratch survives across them.
func (pl *Plan) EachShardBatch(w int, buf []stream.Arc, emit func(full []stream.Arc) (next []stream.Arc)) {
	pl.genShard(pl.g.NewWorker(), w, buf, emit)
}

// genShard replays shard w's chunks through gen under the emit
// contract — the shared body of EachShardBatch and the factory path.
func (pl *Plan) genShard(gen stream.ShardGen, w int, buf []stream.Arc, emit func(full []stream.Arc) (next []stream.Arc)) {
	r := pl.ranges[w]
	if cap(buf) == 0 {
		buf = make([]stream.Arc, 0, stream.DefaultBatchSize)
	}
	cur := buf[:0]
	stopped := false
	wrap := func(full []stream.Arc) []stream.Arc {
		next := emit(full)
		if next == nil {
			stopped = true
			return nil
		}
		cur = next[:0]
		return cur
	}
	for c := r[0]; c < r[1] && !stopped; c++ {
		gen(c, cur, wrap)
	}
}

// ShardGenFactory implements stream.FactorySource: every ShardGen it
// returns wraps ONE Generator.NewWorker for its whole lifetime, so when
// the driver hands a worker goroutine many shards, the generator's cell
// cache and splitting-tree lookups persist across all of them.
func (pl *Plan) ShardGenFactory() stream.GenFactory {
	return func() stream.ShardGen {
		gen := pl.g.NewWorker()
		return func(w int, buf []stream.Arc, emit func(full []stream.Arc) (next []stream.Arc)) {
			pl.genShard(gen, w, buf, emit)
		}
	}
}
