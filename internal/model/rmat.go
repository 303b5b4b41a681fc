package model

import (
	"fmt"
	"math"
	"math/bits"

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
// descent down the remaining u-bits and then the v-bits, in order and
// four levels at a time (see generateChunk), so arcs come out canonical
// and deduplicated with no per-chunk buffer or sort.
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

// rmatBlock is the number of levels one step of the chunk descent
// resolves. Blocks are aligned to bit positions that are multiples of
// rmatBlock, so only the top block of each dimension can be narrower,
// and a v-block's law depends only on the source's bits at its own
// positions.
const rmatBlock = 4

// rmatAliasMax is the largest node that draws its block's patterns from
// the alias tables, one draw per edge. Larger nodes split level by level
// with BinomialFixed, whose zig-zag sampler costs O(√n) a level.
const rmatAliasMax = 256

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
// are derived from (seed, heap index); the left share at every node is
// Binomial(e_node, a+b), the exact conditional law, drawn by
// BinomialFixed, so the leaf budgets follow the exact multinomial
// distribution over subtrees and sum to edges.
func (g *RMAT) splitBudgets() []int64 {
	ab := g.a + g.b
	thr := rng.FixedThreshold(ab)
	e := make([]int64, 2<<g.k)
	e[1] = g.edges
	var s rng.Xoshiro256
	for node := uint64(1); node < uint64(1)<<g.k; node++ {
		s.ReseedStream2(g.seed, nsRMATSplit, node)
		left := s.BinomialFixed(e[node], ab, thr)
		e[2*node] = left
		e[2*node+1] = e[node] - left
	}
	return e[1<<g.k:]
}

// chunkEdgeBudget returns the number of raw edge samples assigned to
// chunk q (precomputed at construction, see splitBudgets).
func (g *RMAT) chunkEdgeBudget(q int) int64 { return g.budgets[q] }

// rmatTable is the alias table of one block's bit pattern over w ≤
// rmatBlock levels. Entry c < 2^w holds column c's acceptance threshold
// in bits 0–53 (at most 2^53) and its alias outcome from bit 56 up.
type rmatTable [1 << rmatBlock]uint64

const (
	rmatFull     = uint64(1) << 53 // one column's mass, and the accept-always threshold
	rmatAccMask  = rmatFull - 1    // a draw's acceptance bits
	rmatThrMask  = 2*rmatFull - 1  // an entry's threshold bits
	rmatAliasBit = 56
)

// outcome maps one xoshiro word to a w-level pattern: the top w bits
// pick a column, which is kept when the low 53 bits fall below its
// threshold and replaced by its alias otherwise — P(column kept) is
// exactly threshold/2^53.
func (t *rmatTable) outcome(r uint64, w uint) uint64 {
	col := r >> (64 - w)
	e := t[col]
	alias := e >> rmatAliasBit
	// Both operands are below 2^54, so the sign of the difference is
	// the acceptance test; the draws are coin flips, so no branch.
	kept := (r&rmatAccMask - e&rmatThrMask) >> 63
	return alias ^ (col^alias)&-kept
}

// build fills t for the 2^w outcomes of prob. Each probability is
// rounded to an integer mass in units of 2^-(53+w) — the rounding
// residue goes to the most probable outcome, so the masses fill exactly
// 2^w columns of 2^53 — and Vose's pairing of under- and over-full
// columns then runs in exact integer arithmetic: the law a table
// implies is its masses, bit for bit on every platform.
func (t *rmatTable) build(prob []float64, w uint) {
	k := 1 << w
	var mass [1 << rmatBlock]uint64
	var sum uint64
	top := 0
	for o := range k {
		mass[o] = uint64(math.Round(math.Ldexp(prob[o], 53+int(w))))
		sum += mass[o]
		if mass[o] > mass[top] {
			top = o
		}
	}
	mass[top] += uint64(k)*rmatFull - sum // wraps, so a sum over the total lowers it
	var small, large [1 << rmatBlock]int
	ns, nl := 0, 0
	for o := range k {
		if mass[o] < rmatFull {
			small[ns], ns = o, ns+1
		} else {
			large[nl], nl = o, nl+1
		}
	}
	// Every column outside the two lists holds exactly 2^53, so when one
	// list empties, every outcome left in the other is exactly full.
	for ns > 0 && nl > 0 {
		ns--
		s, l := small[ns], large[nl-1]
		t[s] = mass[s] | uint64(l)<<rmatAliasBit
		mass[l] -= rmatFull - mass[s]
		if mass[l] < rmatFull {
			nl--
			small[ns], ns = l, ns+1
		}
	}
	for _, o := range large[:nl] {
		t[o] = rmatFull | uint64(o)<<rmatAliasBit
	}
}

// rmatLevelLaw returns the per-level law (P(bit = 0), P(bit = 1)) the
// fixed-point threshold thr encodes; both are exact in float64.
func rmatLevelLaw(thr uint64) [2]float64 {
	return [2]float64{float64(rmatFull-thr) / (1 << 53), float64(thr) / (1 << 53)}
}

// rmatTables are the alias tables of one block's bit pattern: u-tables
// by block width, v-tables by block width and the source's bits at the
// same levels.
type rmatTables struct {
	u [rmatBlock]rmatTable
	v [rmatBlock][1 << rmatBlock]rmatTable
}

// build fills the tables for g's weights. A pattern's probability is
// the product of its levels' laws — levels are independent given the
// source bits — and every product is rounded explicitly (float64(…))
// so no platform fuses it into something that moves a threshold.
func (t *rmatTables) build(g *RMAT) {
	u := rmatLevelLaw(g.thrU1)
	v := [2][2]float64{rmatLevelLaw(g.thrV0), rmatLevelLaw(g.thrV1)}
	var prob [1 << rmatBlock]float64
	for w := uint(1); w <= rmatBlock; w++ {
		for o := range 1 << w {
			p := 1.0
			for i := range w {
				p = float64(p * u[o>>i&1])
			}
			prob[o] = p
		}
		t.u[w-1].build(prob[:], w)
		for x := range 1 << w {
			for o := range 1 << w {
				p := 1.0
				for i := range w {
					p = float64(p * v[x>>i&1][o>>i&1])
				}
				prob[o] = p
			}
			t.v[w-1][x].build(prob[:], w)
		}
	}
}

// NewRun returns the worker factory of one run. Each worker's state
// (tables, chunk stream, one node's pattern draws) is reused across its
// chunks, and the run shares nothing. The tables are built per worker,
// not in NewRMAT: they are 8.5 KB and take microseconds, while a service
// builds a generator for every request it answers from cache and keeps
// it in its job history.
func (g *RMAT) NewRun() stream.GenFactory {
	return func() stream.ShardGen {
		d := &blockDescent{g: g}
		d.tab.build(g)
		return d.generateChunk
	}
}

// blockDescent is one worker's chunk-descent state: the alias tables,
// the chunk's stream, its batcher, and the buffer one node's pattern
// draws are filled into.
type blockDescent struct {
	g   *RMAT
	tab rmatTables
	s   rng.Xoshiro256
	b   *batcher
	raw [rmatAliasMax]uint64
}

// generateChunk realizes chunk q's edge budget by an in-order descent
// over aligned blocks of rmatBlock levels: first the remaining u-bits
// (high to low), then the v-bits. A node of n edges resolves its block
// in one of three ways, all with the same law — the multinomial over
// the block's patterns, a pattern's probability being the product of
// its levels' laws (R-MAT levels are independent given the source):
//
//   - n ≤ rmatAliasMax: each edge draws its pattern from the block's
//     alias table with one xoshiro word, the counts are binned, and the
//     non-empty children are visited in ascending pattern order;
//   - n > rmatAliasMax: one BinomialFixed split per level, 0-branch
//     first, as the level-by-level descent did;
//   - n = 1: one table draw per remaining block, straight to the leaf.
//
// Children are visited in ascending order, so leaves are reached in
// lexicographic (u, v) order: arcs are emitted canonical and already
// deduplicated — a leaf of multiplicity ≥ 2 is one arc — with no buffer
// and no sort, and self loops are dropped at the leaf. Draws come
// sequentially from the chunk's (seed, chunk)-derived stream, so any
// worker replays the chunk identically.
func (d *blockDescent) generateChunk(q int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	g := d.g
	n := g.budgets[q]
	if n == 0 {
		return
	}
	d.s.ReseedStream2(g.seed, nsRMATChunk, uint64(q))
	d.b = newBatcher(buf, emit)
	if d.uDescend(int(g.chunkShift())-1, int64(q)<<g.chunkShift(), n) {
		d.b.flush()
	}
}

// rmatBlockAt returns the width of the block whose top level is bit and
// the bit position of its lowest level.
func rmatBlockAt(bit int) (w uint, lo int) {
	w = uint(bit&(rmatBlock-1)) + 1
	return w, bit + 1 - int(w)
}

// uDescend distributes n ≥ 1 edges over the source subtree rooted at u
// whose unresolved bits are bit…0, then hands each resolved source to
// vDescend. Returns false once the consumer stopped the stream.
func (d *blockDescent) uDescend(bit int, u, n int64) bool {
	if bit < 0 {
		return d.vDescend(d.g.scale-1, u, 0, n)
	}
	if n == 1 {
		return d.single(bit, u)
	}
	w, lo := rmatBlockAt(bit)
	if n > rmatAliasMax {
		return d.uSplit(bit, lo, u, n)
	}
	var cnt [1 << rmatBlock]int64
	for mask := d.patterns(&d.tab.u[w-1], w, n, &cnt); mask != 0; mask &= mask - 1 {
		o := bits.TrailingZeros32(mask)
		if !d.uDescend(lo-1, u|int64(o)<<uint(lo), cnt[o]) {
			return false
		}
	}
	return true
}

// uSplit resolves bits bit…lo of a block too large for the tables with
// one split per level, the 1-branch continuing in this frame, and then
// descends below the block.
func (d *blockDescent) uSplit(bit, lo int, u, n int64) bool {
	g := d.g
	for ; bit >= lo; bit-- {
		ones := d.s.BinomialFixed(n, g.cd, g.thrU1)
		if ones < n && !d.uSplit(bit-1, lo, u, n-ones) {
			return false
		}
		if ones == 0 {
			return true
		}
		u |= int64(1) << uint(bit)
		n = ones
	}
	return d.uDescend(lo-1, u, n)
}

// vDescend distributes the n ≥ 1 edges of the resolved source u over
// the destination subtree rooted at v whose unresolved bits are bit…0;
// the leaf emits its arc once (self loops dropped).
func (d *blockDescent) vDescend(bit int, u, v, n int64) bool {
	if bit < 0 {
		return u == v || d.b.add(u, v)
	}
	if n == 1 {
		return d.singleV(bit, u, v)
	}
	w, lo := rmatBlockAt(bit)
	if n > rmatAliasMax {
		return d.vSplit(bit, lo, u, v, n)
	}
	var cnt [1 << rmatBlock]int64
	tab := &d.tab.v[w-1][u>>uint(lo)&(1<<w-1)]
	for mask := d.patterns(tab, w, n, &cnt); mask != 0; mask &= mask - 1 {
		o := bits.TrailingZeros32(mask)
		if !d.vDescend(lo-1, u, v|int64(o)<<uint(lo), cnt[o]) {
			return false
		}
	}
	return true
}

// vSplit is uSplit for the destination bits, each level split with the
// law its source bit selects.
func (d *blockDescent) vSplit(bit, lo int, u, v, n int64) bool {
	g := d.g
	for ; bit >= lo; bit-- {
		pv, thr := g.pv0, g.thrV0
		if u>>uint(bit)&1 == 1 {
			pv, thr = g.pv1, g.thrV1
		}
		ones := d.s.BinomialFixed(n, pv, thr)
		if ones < n && !d.vSplit(bit-1, lo, u, v, n-ones) {
			return false
		}
		if ones == 0 {
			return true
		}
		v |= int64(1) << uint(bit)
		n = ones
	}
	return d.vDescend(lo-1, u, v, n)
}

// single places a lone edge below the source node u with unresolved
// bits bit…0: one table draw per remaining block — draw for draw the
// table path at n = 1, without its binning and recursion.
func (d *blockDescent) single(bit int, u int64) bool {
	for bit >= 0 {
		w, lo := rmatBlockAt(bit)
		u |= int64(d.tab.u[w-1].outcome(d.s.Uint64(), w)) << uint(lo)
		bit = lo - 1
	}
	return d.singleV(d.g.scale-1, u, 0)
}

// singleV places a lone edge of the resolved source u below the
// destination node v with unresolved bits bit…0.
func (d *blockDescent) singleV(bit int, u, v int64) bool {
	for bit >= 0 {
		w, lo := rmatBlockAt(bit)
		tab := &d.tab.v[w-1][u>>uint(lo)&(1<<w-1)]
		v |= int64(tab.outcome(d.s.Uint64(), w)) << uint(lo)
		bit = lo - 1
	}
	return u == v || d.b.add(u, v)
}

// patterns draws n ≤ rmatAliasMax patterns from t, one xoshiro word
// each, counts them into cnt and returns the mask of the patterns drawn.
func (d *blockDescent) patterns(t *rmatTable, w uint, n int64, cnt *[1 << rmatBlock]int64) uint32 {
	raw := d.raw[:n]
	d.s.Fill(raw)
	var mask uint32
	for _, r := range raw {
		o := t.outcome(r, w)
		cnt[o]++
		mask |= 1 << o
	}
	return mask
}
