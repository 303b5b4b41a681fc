package model

import (
	"fmt"

	"kronvalid/internal/stream"
)

// Gnm is the sharded G(n, m) model: exactly m distinct unordered pairs,
// uniform among all pair sets of that size up to the splitting
// approximation below, emitted as upper-triangle arcs in canonical
// order.
//
// The edge budget is divided across chunks by recursive binomial
// splitting over the chunk tree: the node covering chunks [lo, hi)
// assigns its left half Binomial(m_node, pairs_left/pairs_node) edges
// from an rng derived purely from (seed, lo, hi), so every worker
// recomputes every chunk's exact count — in O(log chunks) draws — with
// no communication, and the counts sum to m exactly. Within a chunk the
// count is realized as uniformly sampled distinct pair indices.
type Gnm struct {
	noDeps
	n      int64
	m      int64
	seed   uint64
	ps     pairSpace
	rows   [][2]int64
	tree   splitTree
	counts []int64 // per-chunk exact edge counts
}

// maxGnmChunkEdges bounds the per-chunk edge budget (each chunk holds
// its sampled pair indices in memory); budgets past it are construction
// errors ("raise chunks") rather than mid-stream memory exhaustion.
const maxGnmChunkEdges = int64(1) << 27

// NewGnm returns the sharded G(n, m) generator. chunks = 0 means
// DefaultChunks; the chunk count is part of the stream identity.
func NewGnm(n, m int64, seed uint64, chunks int) (*Gnm, error) {
	if n < 0 || n > maxPairVertices {
		return nil, fmt.Errorf("model: gnm vertex count %d out of [0, %d]", n, maxPairVertices)
	}
	ps := newPairSpace(n)
	if m < 0 || m > ps.total {
		return nil, fmt.Errorf("model: gnm edge count %d out of [0, %d]", m, ps.total)
	}
	g := &Gnm{n: n, m: m, seed: seed, ps: ps, rows: ps.chunkRows(chunks)}
	if budget := maxGnmChunkEdges * int64(len(g.rows)); m > budget {
		return nil, fmt.Errorf("model: gnm edge count %d exceeds %d chunks × per-chunk cap %d; raise chunks",
			m, len(g.rows), maxGnmChunkEdges)
	}
	g.tree = splitTree{
		seed:        seed,
		ns:          nsGnmSplit,
		slots:       len(g.rows),
		total:       m,
		weight:      g.pairsInSlots,
		capacitated: true, // a chunk cannot hold more edges than pairs
	}
	// Precompute every chunk's count with one shared memo: each tree
	// node's binomial split is drawn once instead of once per descent
	// that passes it, and concurrent generateChunk calls then read the
	// table instead of racing on a memo.
	memo := make(splitMemo, 2*len(g.rows))
	g.counts = make([]int64, len(g.rows))
	for c := range g.counts {
		g.counts[c] = g.tree.countMemo(c, memo)
	}
	return g, nil
}

func buildGnm(p *Params, seed uint64, chunks int) (Generator, error) {
	n, err := p.Int64("n", -1)
	if err != nil {
		return nil, err
	}
	m, err := p.Int64("m", -1)
	if err != nil {
		return nil, err
	}
	return NewGnm(n, m, seed, chunks)
}

func init() { Register("gnm", buildGnm) }

// Name returns the canonical spec of this generator.
func (g *Gnm) Name() string {
	return fmt.Sprintf("gnm:n=%d,m=%d,seed=%d,chunks=%d", g.n, g.m, g.seed, len(g.rows))
}

// NumVertices returns n.
func (g *Gnm) NumVertices() int64 { return g.n }

// NumArcs returns the exact arc count m.
func (g *Gnm) NumArcs() int64 { return g.m }

// Chunks returns the fixed chunk count.
func (g *Gnm) Chunks() int { return len(g.rows) }

// ChunkRange returns chunk c's source-vertex (row) range.
func (g *Gnm) ChunkRange(c int) (lo, hi int64) {
	r := g.rows[c]
	return r[0], r[1]
}

// ChunkWeight returns chunk c's pair count.
func (g *Gnm) ChunkWeight(c int) int64 {
	r := g.rows[c]
	return g.ps.offset(r[1]) - g.ps.offset(r[0])
}

// pairsInSlots returns the number of pairs covered by chunk slots
// [lo, hi). Chunk row ranges are contiguous, so this is one subtraction.
func (g *Gnm) pairsInSlots(lo, hi int) int64 {
	return g.ps.offset(g.rows[hi-1][1]) - g.ps.offset(g.rows[lo][0])
}

// ChunkArcs returns chunk c's exact edge count from the shared binomial
// splitting tree (the Sample phase of this model), precomputed at
// construction with a shared memo. Every draw comes from a stream
// derived purely from (seed, node), so every caller — and the former
// per-call descent — computes the same value.
func (g *Gnm) ChunkArcs(c int) int64 {
	return g.counts[c]
}

// NewRun returns the worker factory of one run: each worker gets its
// own distinct sampler, and the run shares nothing.
func (g *Gnm) NewRun() stream.GenFactory { return g.newWorker }

// newWorker returns the chunk generator bound to one worker's distinct
// sampler.
func (g *Gnm) newWorker() stream.ShardGen {
	d := &distinctSampler{}
	return func(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
		g.generateChunk(d, c, buf, emit)
	}
}

// generateChunk streams chunk c: its exact edge count is realized as
// that many distinct uniform pair indices from the chunk's pair range,
// sorted into canonical order. Dense chunks (> half the range) sample
// the excluded complement instead and walk the range past it, keeping
// expected work O(min(m_c, R-m_c)) draws.
func (g *Gnm) generateChunk(d *distinctSampler, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	mC := g.ChunkArcs(c)
	if mC == 0 {
		return
	}
	r := g.rows[c]
	i0, i1 := g.ps.offset(r[0]), g.ps.offset(r[1])
	size := i1 - i0
	b := newBatcher(buf, emit)
	w := g.ps.walkerAt(r[0])
	d.s.ReseedStream2(g.seed, nsGnmChunk, uint64(c))
	if 2*mC <= size {
		for _, x := range d.sample(size, mC) {
			if u, v := w.step(i0 + x); !b.add(u, v) {
				return
			}
		}
	} else {
		ex := d.sample(size, size-mC) // empty, with no draw, for a full chunk
		next := 0
		for x := int64(0); x < size; x++ {
			if next < len(ex) && ex[next] == x {
				next++
				continue
			}
			if u, v := w.step(i0 + x); !b.add(u, v) {
				return
			}
		}
	}
	b.flush()
}
