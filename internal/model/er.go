package model

import (
	"fmt"
	"math"

	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// ErdosRenyi is the sharded G(n, p) model: each unordered pair {u, v} is
// an edge independently with probability p, and the stream emits the
// upper-triangle arc (u, v), u < v, once per edge in canonical order.
//
// The pair index space [0, n(n-1)/2) is cut into row-aligned chunks;
// chunk c walks its index range with geometric skips from its own
// (seed, c)-derived stream, which makes generation O(expected edges)
// instead of the O(n²) Bernoulli sweep of the legacy builder, with no
// coordination between chunks.
type ErdosRenyi struct {
	noDeps
	n    int64
	p    float64
	seed uint64
	ps   pairSpace
	rows [][2]int64
}

// maxPairVertices bounds n so the pair count n(n-1)/2 fits in int64.
const maxPairVertices = int64(1) << 32

// NewErdosRenyi returns the sharded G(n, p) generator. chunks = 0 means
// DefaultChunks; the chunk count is part of the stream identity.
func NewErdosRenyi(n int64, p float64, seed uint64, chunks int) (*ErdosRenyi, error) {
	if n < 0 || n > maxPairVertices {
		return nil, fmt.Errorf("model: er vertex count %d out of [0, %d]", n, maxPairVertices)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("model: er edge probability %v out of [0, 1]", p)
	}
	ps := newPairSpace(n)
	return &ErdosRenyi{n: n, p: p, seed: seed, ps: ps, rows: ps.chunkRows(chunks)}, nil
}

func buildER(p *Params, seed uint64, chunks int) (Generator, error) {
	n, err := p.Int64("n", -1)
	if err != nil {
		return nil, err
	}
	prob, err := p.Float("p", 0.1)
	if err != nil {
		return nil, err
	}
	return NewErdosRenyi(n, prob, seed, chunks)
}

func init() { Register("er", buildER) }

// Name returns the canonical spec of this generator.
func (g *ErdosRenyi) Name() string {
	return fmt.Sprintf("er:n=%d,p=%s,seed=%d,chunks=%d", g.n, formatFloat(g.p), g.seed, len(g.rows))
}

// NumVertices returns n.
func (g *ErdosRenyi) NumVertices() int64 { return g.n }

// NumArcs returns -1: the edge count is binomial, not fixed.
func (g *ErdosRenyi) NumArcs() int64 { return -1 }

// ExpectedArcs returns the expected number of emitted arcs, p·n(n-1)/2.
func (g *ErdosRenyi) ExpectedArcs() float64 { return g.p * float64(g.ps.total) }

// Chunks returns the fixed chunk count.
func (g *ErdosRenyi) Chunks() int { return len(g.rows) }

// ChunkRange returns chunk c's source-vertex (row) range.
func (g *ErdosRenyi) ChunkRange(c int) (lo, hi int64) {
	r := g.rows[c]
	return r[0], r[1]
}

// ChunkWeight returns chunk c's pair count, its expected relative work.
func (g *ErdosRenyi) ChunkWeight(c int) int64 {
	r := g.rows[c]
	return g.ps.offset(r[1]) - g.ps.offset(r[0])
}

// ChunkArcs returns -1: per-chunk counts are random.
func (g *ErdosRenyi) ChunkArcs(c int) int64 { return -1 }

// NewRun returns the worker factory of one run: Erdős–Rényi chunks
// keep no state, so every worker is the chunk method itself.
func (g *ErdosRenyi) NewRun() stream.GenFactory {
	return func() stream.ShardGen { return g.generateChunk }
}

// generateChunk streams chunk c: geometric skips across the chunk's pair
// index range, each surviving index unpacked to its (u, v) arc.
func (g *ErdosRenyi) generateChunk(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	r := g.rows[c]
	if r[0] >= r[1] || g.p <= 0 {
		return
	}
	b := newBatcher(buf, emit)
	i0, i1 := g.ps.offset(r[0]), g.ps.offset(r[1])
	w := g.ps.walkerAt(r[0])
	if g.p >= 1 {
		for t := i0; t < i1; t++ {
			if u, v := w.step(t); !b.add(u, v) {
				return
			}
		}
		b.flush()
		return
	}
	s := rng.NewStream2(g.seed, nsERChunk, uint64(c))
	// p is fixed for the whole sweep, so the denominator log1p(-p) —
	// half of Geometric's flat cost — is hoisted out of the loop;
	// GeometricLog is draw-for-draw identical to Geometric(p).
	logq := math.Log1p(-g.p)
	t := i0 - 1
	for {
		// Break on skip >= remaining rather than comparing t+1+skip with
		// i1: the capped skip could overflow the sum near the top of the
		// int64 pair space.
		skip := s.GeometricLog(logq)
		if skip >= i1-t-1 {
			break
		}
		t += 1 + skip
		if u, v := w.step(t); !b.add(u, v) {
			return
		}
	}
	b.flush()
}
