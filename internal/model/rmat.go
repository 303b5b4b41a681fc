package model

import (
	"fmt"
	"math"

	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// RMAT is the sharded stochastic-Kronecker (R-MAT) model on 2^scale
// vertices: `edges` directed arcs are sampled by recursive quadrant
// descent with probabilities (a, b, c, d); self loops are dropped and
// duplicates merged, so the realized arc count can be slightly lower.
//
// Chunks are the 2^k subtrees of the source-vertex dimension (the top k
// bits of u), so each chunk owns a contiguous u range. The edge budget
// is split across subtrees by recursive binomial splitting with the
// exact conditional probabilities — P(u-bit = 0) = a+b at every level —
// which realizes the exact multinomial law of how many of the e edges
// fall in each subtree, from (seed, node)-derived streams any worker
// can replay. Within a chunk the budget is realized by continuing the
// same splitting down the remaining u-bits and then the v-bits, in
// order (see generateChunk), so arcs come out canonical and
// deduplicated with no per-chunk buffer or sort.
type RMAT struct {
	noDeps
	scale      int
	edges      int64
	a, b, c, d float64
	seed       uint64
	k          uint // log2 of the chunk count
	pv0, pv1   float64
	cd         float64 // P(u-bit = 1) = c+d
	// Fixed-point thresholds of the three per-bit Bernoulli laws (see
	// rng.FixedThreshold): u-bit, and v-bit conditioned on u-bit 0/1.
	thrU1, thrV0, thrV1 uint64
	budgets             []int64 // per-chunk raw edge budgets
}

// maxRMATScale bounds the vertex-id space to stay well inside int64.
const maxRMATScale = 48

// maxRMATEdges bounds the total edge budget.
const maxRMATEdges = int64(1) << 36

// NewRMAT returns the sharded R-MAT generator. The probabilities are
// normalized to sum to 1; chunks is rounded down to a power of two and
// clamped to [1, 2^scale] (0 means DefaultChunks). The in-order descent
// keeps per-chunk memory O(scale) regardless of how the budget
// concentrates, so no per-chunk budget cap applies.
func NewRMAT(scale int, edges int64, a, b, c, d float64, seed uint64, chunks int) (*RMAT, error) {
	if scale < 1 || scale > maxRMATScale {
		return nil, fmt.Errorf("model: rmat scale %d out of [1, %d]", scale, maxRMATScale)
	}
	if edges < 0 || edges > maxRMATEdges {
		return nil, fmt.Errorf("model: rmat edge count %d out of [0, %d]", edges, maxRMATEdges)
	}
	sum := a + b + c + d
	if !(sum > 0) || a < 0 || b < 0 || c < 0 || d < 0 ||
		math.IsNaN(sum) || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("model: rmat probabilities (%v, %v, %v, %v) must be non-negative with a positive sum", a, b, c, d)
	}
	a, b, c, d = a/sum, b/sum, c/sum, d/sum
	g := &RMAT{scale: scale, edges: edges, a: a, b: b, c: c, d: d, seed: seed, k: rmatChunkBits(scale, chunks)}
	if ab := a + b; ab > 0 {
		g.pv0 = b / ab
	}
	if cd := c + d; cd > 0 {
		g.pv1 = d / cd
	}
	g.cd = c + d
	g.thrU1 = rng.FixedThreshold(g.cd)
	g.thrV0 = rng.FixedThreshold(g.pv0)
	g.thrV1 = rng.FixedThreshold(g.pv1)
	g.budgets = g.splitBudgets()
	return g, nil
}

// rmatChunkBits resolves a requested chunk count to the log2 of the
// actual (power-of-two) chunk count for the given scale.
func rmatChunkBits(scale, chunks int) uint {
	chunks = normalizeChunks(chunks, int64(1)<<uint(scale))
	k := uint(0)
	for int(1)<<(k+1) <= chunks {
		k++
	}
	return k
}

// defaultRMATEdges returns the default edge budget of an R-MAT spec —
// the Graph500 edge factor 16, clamped to the model's total budget
// bound. Returns -1 (treated as required by the parameter readers) when
// scale or the probabilities are unusable.
func defaultRMATEdges(scale int, a, b, c, d float64) int64 {
	sum := a + b + c + d
	if scale < 1 || scale > maxRMATScale || !(sum > 0) || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return -1
	}
	edges := int64(16) << uint(scale)
	if edges > maxRMATEdges {
		edges = maxRMATEdges
	}
	return edges
}

func buildRMAT(p *Params, seed uint64, chunks int) (Generator, error) {
	scale, err := p.Int("scale", -1)
	if err != nil {
		return nil, err
	}
	a, err := p.Float("a", 0.57)
	if err != nil {
		return nil, err
	}
	b, err := p.Float("b", 0.19)
	if err != nil {
		return nil, err
	}
	c, err := p.Float("c", 0.19)
	if err != nil {
		return nil, err
	}
	d, err := p.Float("d", 0.05)
	if err != nil {
		return nil, err
	}
	edges, err := p.Int64("edges", defaultRMATEdges(scale, a, b, c, d))
	if err != nil {
		return nil, err
	}
	return NewRMAT(scale, edges, a, b, c, d, seed, chunks)
}

func init() { Register("rmat", buildRMAT) }

// Name returns the canonical spec of this generator.
func (g *RMAT) Name() string {
	return fmt.Sprintf("rmat:scale=%d,edges=%d,a=%s,b=%s,c=%s,d=%s,seed=%d,chunks=%d",
		g.scale, g.edges, formatFloat(g.a), formatFloat(g.b), formatFloat(g.c), formatFloat(g.d),
		g.seed, g.Chunks())
}

// NumVertices returns 2^scale.
func (g *RMAT) NumVertices() int64 { return int64(1) << uint(g.scale) }

// NumArcs returns -1: deduplication makes the realized count random.
func (g *RMAT) NumArcs() int64 { return -1 }

// MaxArcs returns the edge budget: deduplication only lowers the
// realized count, so a consumer that must hold every arc can refuse an
// oversized spec before generating any.
func (g *RMAT) MaxArcs() int64 { return g.edges }

// Chunks returns the fixed chunk count 2^k.
func (g *RMAT) Chunks() int { return 1 << g.k }

// chunkShift is the width of the per-chunk low u-bits.
func (g *RMAT) chunkShift() uint { return uint(g.scale) - g.k }

// ChunkRange returns chunk q's source-vertex range: the u values whose
// top k bits equal q.
func (g *RMAT) ChunkRange(q int) (lo, hi int64) {
	return int64(q) << g.chunkShift(), int64(q+1) << g.chunkShift()
}

// subtreeProb returns the probability that one edge's source falls in
// chunk q's u-subtree.
func (g *RMAT) subtreeProb(q int) float64 {
	p := 1.0
	for level := uint(0); level < g.k; level++ {
		if q>>(g.k-1-level)&1 == 0 {
			p *= g.a + g.b
		} else {
			p *= g.c + g.d
		}
	}
	return p
}

// ChunkWeight returns chunk q's expected edge count (plus one, so empty
// subtrees still carry iteration cost).
func (g *RMAT) ChunkWeight(q int) int64 {
	return 1 + int64(g.subtreeProb(q)*float64(g.edges))
}

// ChunkArcs returns -1: deduplication makes per-chunk counts random.
func (g *RMAT) ChunkArcs(q int) int64 { return -1 }

// splitBudgets descends the k-level u-bit splitting tree once at
// construction and returns every chunk's raw edge budget. Node streams
// are derived from (seed, heap index) — the same per-node streams the
// former lazy per-chunk descent drew from, so the budgets are
// unchanged: the left share at every node is Binomial(e_node, a+b), the
// exact conditional law, so the leaf budgets follow the exact
// multinomial distribution over subtrees and sum to edges. One pass
// over the heap replaces 2^k descents of k draws each (the shared-memo
// request of the per-chunk path, taken to its limit).
func (g *RMAT) splitBudgets() []int64 {
	e := make([]int64, 2<<g.k)
	e[1] = g.edges
	for node := uint64(1); node < uint64(1)<<g.k; node++ {
		s := rng.NewStream2(g.seed, nsRMATSplit, node)
		left := s.Binomial(e[node], g.a+g.b)
		e[2*node] = left
		e[2*node+1] = e[node] - left
	}
	return e[1<<g.k:]
}

// chunkEdgeBudget returns the number of raw edge samples assigned to
// chunk q (precomputed at construction, see splitBudgets).
func (g *RMAT) chunkEdgeBudget(q int) int64 { return g.budgets[q] }

// NewWorker returns the chunk generator: R-MAT chunks keep no
// worker-lifetime scratch.
func (g *RMAT) NewWorker() stream.ShardGen { return g.generateChunk }

// generateChunk realizes chunk q's edge budget by in-order multinomial
// descent: the budget is split down the remaining u-bits (high to low,
// 0-branch first) with the exact conditional law P(u-bit = 1) = c+d,
// and each fully resolved source u splits its count down the v-bits
// with P(v-bit = 1 | u-bit) = pv0 or pv1. Leaves are therefore reached
// in lexicographic (u, v) order, so arcs are emitted canonical and
// already deduplicated — a leaf of multiplicity ≥ 2 is one arc — with
// no buffer and no sort; self loops are dropped at the leaf.
//
// The leaf counts follow exactly the same multinomial law as sampling
// the budget edge by edge with per-bit quadrant draws: R-MAT levels are
// iid, so conditioned on a node's count the split across its two
// children is binomial with the child's conditional probability, and
// the fixed-point thresholds encode each Bernoulli probability
// bit-for-bit (rng.FixedThreshold). Draws come sequentially from the
// chunk's (seed, chunk)-derived stream, so any worker replays the chunk
// identically.
func (g *RMAT) generateChunk(q int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	eC := g.budgets[q]
	if eC == 0 {
		return
	}
	d := &rmatDescent{
		g:   g,
		s:   rng.NewStream2(g.seed, nsRMATChunk, uint64(q)),
		b:   newBatcher(buf, emit),
		raw: make([]uint64, g.scale),
	}
	if d.uDescend(int(g.chunkShift())-1, int64(q)<<g.chunkShift(), eC) {
		d.b.flush()
	}
}

// rmatDescent carries one chunk's in-order descent state. raw is the
// chunk-lifetime scratch for batch-drawing a singleton's remaining bit
// levels in one Fill (at most scale draws per batch).
type rmatDescent struct {
	g   *RMAT
	s   *rng.Xoshiro256
	b   *batcher
	raw []uint64
}

// uDescend distributes n ≥ 1 edges across the source subtree rooted at
// u with bit+1 unresolved low u-bits, emitting the 0-branch before the
// 1-branch; the 1-branch continues iteratively in this frame, so the
// recursion depth is at most the bit count. Returns false when the
// consumer stopped the stream.
func (d *rmatDescent) uDescend(bit int, u, n int64) bool {
	g := d.g
	for bit >= 0 {
		if n == 1 {
			// A single edge consumes exactly one draw per remaining level
			// no matter the outcomes, so the whole tail is one batched
			// Fill (draw-identical to per-level Below calls).
			// The outcomes are coin flips, so the bit is computed, not
			// branched on: both operands are below 2^54, and the sign
			// of their difference is r>>11 < thr.
			raw := d.raw[:bit+1]
			d.s.Fill(raw)
			for i, r := range raw {
				u |= int64((r>>11-g.thrU1)>>63) << uint(bit-i)
			}
			break
		}
		ones := d.s.BinomialFixed(n, g.cd, g.thrU1)
		if ones < n {
			if !d.uDescend(bit-1, u, n-ones) {
				return false
			}
		}
		if ones == 0 {
			return true
		}
		u |= int64(1) << uint(bit)
		n = ones
		bit--
	}
	return d.vDescend(g.scale-1, u, 0, n)
}

// vDescend distributes the n ≥ 1 edges of the fully resolved source u
// across the destination bit tree, 0-branch first; the leaf emits its
// arc once (self loops dropped).
func (d *rmatDescent) vDescend(bit int, u, v, n int64) bool {
	g := d.g
	for bit >= 0 {
		if n == 1 {
			raw := d.raw[:bit+1]
			d.s.Fill(raw)
			thr := [2]uint64{g.thrV0, g.thrV1}
			for i, r := range raw {
				sh := uint(bit - i)
				v |= int64((r>>11-thr[u>>sh&1])>>63) << sh
			}
			break
		}
		pv, thr := g.pv0, g.thrV0
		if u>>uint(bit)&1 == 1 {
			pv, thr = g.pv1, g.thrV1
		}
		ones := d.s.BinomialFixed(n, pv, thr)
		if ones < n {
			if !d.vDescend(bit-1, u, v, n-ones) {
				return false
			}
		}
		if ones == 0 {
			return true
		}
		v |= int64(1) << uint(bit)
		n = ones
		bit--
	}
	if u != v {
		return d.b.add(u, v)
	}
	return true
}
