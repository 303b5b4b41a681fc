package model

import (
	"fmt"
	"math"
	"sync"

	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// ChungLu is the sharded Chung–Lu model over a non-increasing expected
// weight sequence w: pair (i, j), i < j, is an edge independently with
// probability min(1, w_i·w_j / Σw). The stream emits upper-triangle
// arcs in canonical order over the weight-sorted vertex space.
//
// Rows are grouped into chunks of near-equal expected work; each chunk
// runs the blockwise core (geometric-skip sweep over the varying-weight
// head, binomial-count realization over the constant-weight tail — see
// DESIGN.md §2f) with its own (seed, chunk)-derived stream, so expected
// cost stays O(n + m) in total and chunks never communicate.
type ChungLu struct {
	noDeps
	name     string
	nameOnce sync.Once
	w        []float64
	sum      float64
	seed     uint64
	rows     [][2]int64
	work     []int64 // per-chunk expected work (for shard balancing)
	tail0    int64   // start of the maximal constant-weight suffix run
}

// NewChungLu returns the sharded Chung–Lu generator over the given
// non-increasing weight sequence. chunks = 0 means DefaultChunks. The
// reported Name identifies the weights by digest; use the registry form
// ("chunglu:n=…,dmax=…,…") for a spec that rebuilds the weights.
func NewChungLu(weights []float64, seed uint64, chunks int) (*ChungLu, error) {
	// One fused pass: validity, the sum (left-to-right, the model's
	// definition of Σw), and the start of the maximal constant-weight
	// suffix. The hot-path check is a single comparison chain — 0 ≤ w ≤
	// prev rejects NaN (fails both compares), negatives, and any
	// increase or late +Inf in one branch — with the detailed diagnosis
	// deferred to a cold second scan.
	var sum float64
	var tail0 int64
	prev := math.Inf(1)
	valid := len(weights) == 0 || !math.IsInf(weights[0], 1)
	for i, w := range weights {
		if !(w >= 0 && w <= prev) {
			valid = false
			break
		}
		if w != prev && i > 0 {
			tail0 = int64(i)
		}
		prev = w
		sum += w
	}
	if !valid {
		for i, w := range weights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("model: chunglu weight[%d] = %v is not a finite non-negative number", i, w)
			}
			if i > 0 && w > weights[i-1] {
				return nil, fmt.Errorf("model: chunglu weights must be non-increasing (weight[%d] = %v > weight[%d] = %v)", i, w, i-1, weights[i-1])
			}
		}
		// The fast check rejects exactly the cases above, so this is
		// unreachable — kept so a mismatch can never hand back a
		// generator built from a partial sum.
		return nil, fmt.Errorf("model: chunglu weights failed validation")
	}
	return newChungLuTrusted(weights, sum, tail0, seed, chunks), nil
}

// newChungLuTrusted builds the generator from weights the caller
// guarantees are finite, non-negative, and non-increasing, with their
// left-to-right sum and constant-suffix start precomputed — the
// registry builder derives all three during weight construction, so it
// skips NewChungLu's validation pass. tail0 is the last index whose
// weight differs from its predecessor: the start of the dmin-floored
// tail, the region the blockwise core realizes with binomial counts
// instead of per-candidate sweeping.
func newChungLuTrusted(weights []float64, sum float64, tail0 int64, seed uint64, chunks int) *ChungLu {
	g := &ChungLu{w: weights, sum: sum, seed: seed, tail0: tail0}
	g.partition(chunks)
	return g
}

// partition groups rows [0, n-1) into chunks of near-equal expected
// work, where row i's work is one sweep start plus its expected edge
// count w_i·(Σ_{j>i} w_j)/Σw (saturation ignored — it only affects
// balance, never correctness).
func (g *ChungLu) partition(chunks int) {
	n := int64(len(g.w))
	nRows := n - 1
	if nRows < 0 {
		nRows = 0
	}
	chunks = normalizeChunks(chunks, maxInt64(nRows, 1))
	// One backward pass stashes each row's work — one sweep start plus
	// the expected edge count — then a forward pass folds it into a
	// prefix-sum array, the only O(n) state the run split needs.
	prefix := make([]float64, nRows+1)
	suffix := 0.0
	invSum := 0.0
	if g.sum > 0 {
		invSum = 1 / g.sum
	}
	for i := n - 1; i >= 0; i-- {
		if i < nRows {
			// One multiply by the reciprocal instead of a divide per
			// row; the rounding difference only moves shard balancing.
			prefix[i+1] = 1 + g.w[i]*suffix*invSum
		}
		suffix += g.w[i]
	}
	for i := int64(0); i < nRows; i++ {
		prefix[i+1] += prefix[i]
	}
	// Empty slots are kept so chunk ids stay a pure function of
	// (weights, chunks), never of balancing.
	runs := prefixRuns(prefix, chunks, true)
	g.rows = make([][2]int64, 0, len(runs))
	g.work = make([]int64, 0, len(runs))
	for _, r := range runs {
		g.rows = append(g.rows, [2]int64{int64(r[0]), int64(r[1])})
		g.work = append(g.work, 1+int64(prefix[r[1]]-prefix[r[0]]))
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// weightDigest fingerprints a weight sequence (FNV-1a over the IEEE
// bits).
func weightDigest(w []float64) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(len(w)))
	for _, x := range w {
		mix(math.Float64bits(x))
	}
	return h
}

// maxChungLuVertices bounds the registry-built weight sequence (8 bytes
// per vertex are materialized); larger n must construct NewChungLu with
// caller-owned weights.
const maxChungLuVertices = int64(1) << 28

func buildChungLu(p *Params, seed uint64, chunks int) (Generator, error) {
	n, err := p.Int64("n", -1)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > maxChungLuVertices {
		return nil, fmt.Errorf("model: chunglu vertex count %d out of [0, %d]", n, maxChungLuVertices)
	}
	dmax, err := p.Float("dmax", math.Sqrt(float64(n)))
	if err != nil {
		return nil, err
	}
	dmin, err := p.Float("dmin", 1)
	if err != nil {
		return nil, err
	}
	gamma, err := p.Float("gamma", 2.5)
	if err != nil {
		return nil, err
	}
	if !(gamma > 1) {
		return nil, fmt.Errorf("model: chunglu gamma %v must exceed 1", gamma)
	}
	if !(dmax >= dmin) || dmin < 0 {
		return nil, fmt.Errorf("model: chunglu needs dmax >= dmin >= 0 (have dmax=%v, dmin=%v)", dmax, dmin)
	}
	// Deterministic power-law-ish expected degrees, already
	// non-increasing: w_i = dmax·(i+1)^(-1/(gamma-1)), floored at dmin.
	// Once a value lands on the floor every later one does too (the raw
	// sequence is decreasing), so the pow calls stop at the crossing and
	// the dmin tail — the bulk of the sequence — is a plain fill. The
	// sum accumulates element by element in the same left-to-right
	// order as NewChungLu's validation pass, so the trusted constructor
	// yields the bit-identical generator.
	weights := make([]float64, n)
	exp := -1 / (gamma - 1)
	var sum float64
	var tail0 int64
	floored := int(n)
	prev := math.Inf(1)
	for i := range weights {
		w := dmax * math.Pow(float64(i+1), exp)
		if w <= dmin {
			floored = i
			break
		}
		weights[i] = w
		if i > 0 && w != prev {
			tail0 = int64(i)
		}
		prev = w
		sum += w
	}
	for i := floored; i < len(weights); i++ {
		weights[i] = dmin
		sum += dmin
	}
	if floored > 0 && floored < len(weights) {
		// Head values are strictly above dmin, so the floor boundary is
		// always a weight change.
		tail0 = int64(floored)
	}
	g := newChungLuTrusted(weights, sum, tail0, seed, chunks)
	g.name = fmt.Sprintf("chunglu:n=%d,dmax=%s,dmin=%s,gamma=%s,seed=%d,chunks=%d",
		n, formatFloat(dmax), formatFloat(dmin), formatFloat(gamma), seed, len(g.rows))
	return g, nil
}

func init() { Register("chunglu", buildChungLu) }

// Name returns the generator's spec (registry-built) or a
// weight-digest description (direct construction). The digest walks the
// whole weight sequence, so direct construction defers it to the first
// Name call rather than charging every generator for a string most
// never print.
func (g *ChungLu) Name() string {
	g.nameOnce.Do(func() {
		if g.name == "" {
			g.name = fmt.Sprintf("chunglu-weights:n=%d,wdigest=%x,seed=%d,chunks=%d",
				len(g.w), weightDigest(g.w), g.seed, len(g.rows))
		}
	})
	return g.name
}

// NumVertices returns the weight sequence length.
func (g *ChungLu) NumVertices() int64 { return int64(len(g.w)) }

// NumArcs returns -1: the edge count is random.
func (g *ChungLu) NumArcs() int64 { return -1 }

// Chunks returns the fixed chunk count.
func (g *ChungLu) Chunks() int { return len(g.rows) }

// ChunkRange returns chunk c's source-vertex (row) range.
func (g *ChungLu) ChunkRange(c int) (lo, hi int64) {
	r := g.rows[c]
	return r[0], r[1]
}

// ChunkWeight returns chunk c's expected work.
func (g *ChungLu) ChunkWeight(c int) int64 { return g.work[c] }

// ChunkArcs returns -1: per-chunk counts are random.
func (g *ChungLu) ChunkArcs(c int) int64 { return -1 }

// chungLuState is the per-worker scratch of the blockwise core: a value
// generator reseeded per chunk, the sampled-position buffers, and the
// distinct-sampling set. It holds no sample cache — Chung–Lu chunks own
// all their randomness — so reuse saves allocations only and can never
// move a byte.
type chungLuState struct {
	s   rng.Xoshiro256
	pos []int64 // sorted success positions of one segment
	inv []int64 // complement-inversion scratch (dense segments)
	tmp []int64 // bucket-scatter scratch (sortPositions)
	cnt []int32 // bucket counters (sortPositions)
}

// NewWorker returns the chunk generator bound to fresh blockwise-core
// scratch for one worker.
func (g *ChungLu) NewWorker() stream.ShardGen {
	st := &chungLuState{}
	return func(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
		g.generateChunk(st, c, buf, emit)
	}
}

// clSegmentPairs caps one binomial segment of a constant-probability
// region. Segmenting is exact — the region's trials are independent, so
// Binomial counts over disjoint segments compose to the same law — and
// the cap bounds the per-segment position scratch.
const clSegmentPairs = int64(1) << 23

// clGeomCutoff is the expected success count below which a constant-
// probability region uses the geometric-skip sweep instead of binomial
// counts: skips cost one log per success, which beats the zig-zag
// sampler's log-gamma setup until the setup amortizes over enough
// successes. Both realizations of the iid Bernoulli region are exact;
// the cutoff only picks the cheaper one.
const clGeomCutoff = 32.0

// sampleDistinctInto draws k distinct values from [0, size) into the
// worker's position buffer and returns them sorted ascending. Each
// round draws the missing count, sorts, and drops duplicates — in the
// common regime k ≪ size, the first round already has no collisions,
// so no duplicate-filter set is touched at all; callers guarantee
// 2k <= size, so even the dense case keeps a coin-flip-or-better
// acceptance rate per round and the rounds shrink geometrically. Like
// sequential rejection, every accepted value is uniform over the
// not-yet-chosen ones, so the result is a uniform k-subset.
func (st *chungLuState) sampleDistinctInto(size, k int64) []int64 {
	pos := st.pos[:0]
	for {
		for int64(len(pos)) < k {
			pos = append(pos, st.s.Int64n(size))
		}
		st.sortPositions(pos, size-1)
		w := 1
		for i := 1; i < len(pos); i++ {
			if pos[i] != pos[i-1] {
				pos[w] = pos[i]
				w++
			}
		}
		pos = pos[:w]
		if int64(w) == k {
			break
		}
	}
	st.pos = pos
	return pos
}

// sortPositions sorts pos ascending. The values are uniform draws from
// [0, max], so one counting-sort pass over ~2·len power-of-two buckets
// (keyed by the value's top bits) leaves only intra-bucket inversions —
// expected bucket occupancy is below one — and a single insertion pass
// finishes in near-linear time. This beats the general comparison sort,
// whose random-data branch misses dominated the segment loop.
func (st *chungLuState) sortPositions(pos []int64, max int64) {
	n := len(pos)
	if n >= 16 && max > 0 {
		nb := 16
		for nb < 2*n && nb < 1<<16 {
			nb <<= 1
		}
		shift := uint(0)
		for max>>shift >= int64(nb) {
			shift++
		}
		if cap(st.cnt) < nb {
			st.cnt = make([]int32, nb)
		}
		cnt := st.cnt[:nb]
		clear(cnt)
		for _, v := range pos {
			cnt[v>>shift]++
		}
		sum := int32(0)
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		if cap(st.tmp) < n {
			st.tmp = make([]int64, n, 2*n)
		}
		tmp := st.tmp[:n]
		for _, v := range pos {
			b := v >> shift
			tmp[cnt[b]] = v
			cnt[b]++
		}
		copy(pos, tmp)
	}
	for i := 1; i < n; i++ {
		v := pos[i]
		j := i - 1
		for j >= 0 && pos[j] > v {
			pos[j+1] = pos[j]
			j--
		}
		pos[j+1] = v
	}
}

// drawSegment realizes the success set of L iid Bernoulli(t/2^53)
// trials: one binomial count, then that many distinct uniform sorted
// positions — dense counts (> L/2) sample the complement instead, which
// selects the same uniform k-subset law. all reports every trial
// succeeded (positions are implicit).
func (st *chungLuState) drawSegment(L int64, p float64, t uint64) (pos []int64, all bool) {
	k := st.s.BinomialFixed(L, p, t)
	switch {
	case k <= 0:
		return nil, false
	case k >= L:
		return nil, true
	case 2*k <= L:
		return st.sampleDistinctInto(L, k), false
	default:
		ex := st.sampleDistinctInto(L, L-k)
		inv := st.inv[:0]
		next := int64(0)
		for _, x := range ex {
			for ; next < x; next++ {
				inv = append(inv, next)
			}
			next = x + 1
		}
		for ; next < L; next++ {
			inv = append(inv, next)
		}
		st.inv = inv
		return inv, false
	}
}

// emitConstRect streams row u's edges into the constant-probability
// column range [colBase, colBase+size) with per-pair probability p
// (fixed-point threshold t = FixedThreshold(p)), emitted ascending.
// Runs with a small expected count use the geometric-skip sweep — one
// log per success, no sampler setup — while larger runs use segmented
// binomial counts with sorted distinct positions. Both paths realize
// the same iid Bernoulli law exactly; the cutoff only picks the
// cheaper realization. Returns false when the consumer stopped.
func (g *ChungLu) emitConstRect(st *chungLuState, b *batcher, u, colBase, size int64, p float64, t uint64) bool {
	if t == 0 || size <= 0 {
		return true
	}
	if t >= 1<<53 {
		for q := int64(0); q < size; q++ {
			if !b.add(u, colBase+q) {
				return false
			}
		}
		return true
	}
	if p*float64(size) < clGeomCutoff {
		log1mP := math.Log1p(-p)
		for q := st.s.GeometricLog(log1mP); q < size; q += 1 + st.s.GeometricLog(log1mP) {
			if !b.add(u, colBase+q) {
				return false
			}
		}
		return true
	}
	for a := int64(0); a < size; a += clSegmentPairs {
		L := size - a
		if L > clSegmentPairs {
			L = clSegmentPairs
		}
		pos, all := st.drawSegment(L, p, t)
		if all {
			for q := int64(0); q < L; q++ {
				if !b.add(u, colBase+a+q) {
					return false
				}
			}
			continue
		}
		for _, x := range pos {
			if !b.add(u, colBase+a+x) {
				return false
			}
		}
	}
	return true
}

// emitTailTriangle streams the constant-probability pair region of tail
// rows [i0, i1): every pair (i, j), i0 <= i < i1, i < j < n, has the
// same probability wt²/Σw, so the whole trapezoid of the row-major pair
// space is realized as one Bernoulli run over pair indices — the same
// geometric-vs-binomial split as emitConstRect — and unpacked to (i, j)
// by an incremental row walk. Ascending pair index is row-major order,
// so emission is canonical. Returns false when the consumer stopped.
func (g *ChungLu) emitTailTriangle(st *chungLuState, b *batcher, i0, i1 int64) bool {
	n := int64(len(g.w))
	wt := g.w[n-1]
	p := wt * wt / g.sum
	if p > 1 {
		p = 1
	}
	t := rng.FixedThreshold(p)
	// Row-major pair space over the trapezoid: row i contributes
	// n-1-i pairs. Total = sum over [i0, i1), an arithmetic series.
	T := (n - 1 - i0 + n - i1) * (i1 - i0) / 2
	if t == 0 || T <= 0 {
		return true
	}
	row, rowStart, rowLen := i0, int64(0), n-1-i0
	place := func(q int64) bool {
		for q >= rowStart+rowLen {
			rowStart += rowLen
			row++
			rowLen--
		}
		return b.add(row, row+1+(q-rowStart))
	}
	if t >= 1<<53 {
		for q := int64(0); q < T; q++ {
			if !place(q) {
				return false
			}
		}
		return true
	}
	if p*float64(T) < clGeomCutoff {
		log1mP := math.Log1p(-p)
		for q := st.s.GeometricLog(log1mP); q < T; q += 1 + st.s.GeometricLog(log1mP) {
			if !place(q) {
				return false
			}
		}
		return true
	}
	for a := int64(0); a < T; a += clSegmentPairs {
		L := T - a
		if L > clSegmentPairs {
			L = clSegmentPairs
		}
		pos, all := st.drawSegment(L, p, t)
		if all {
			for q := int64(0); q < L; q++ {
				if !place(a + q) {
					return false
				}
			}
			continue
		}
		for _, x := range pos {
			// Inline row walk: the closure call per edge was the
			// hottest line of the whole model under profile.
			q := a + x
			for q >= rowStart+rowLen {
				rowStart += rowLen
				row++
				rowLen--
			}
			if !b.add(row, row+1+(q-rowStart)) {
				return false
			}
		}
	}
	return true
}

// generateChunk streams chunk c through the blockwise core: head
// rows (varying column weights) run the bucketed geometric-skip sweep
// against the head columns only, each head row's constant-weight tail
// columns are realized as binomial counts plus sorted distinct
// positions, and the all-tail row block becomes one constant-probability
// pair region. Every path realizes the exact per-pair Bernoulli law
// min(1, w_i·w_j/Σw) — see DESIGN.md §2 for the equivalence argument —
// drawing from the chunk's own (seed, nsCLBlock, c) stream.
func (g *ChungLu) generateChunk(st *chungLuState, c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	r := g.rows[c]
	if r[0] >= r[1] || g.sum <= 0 {
		return
	}
	st.s.ReseedStream2(g.seed, nsCLBlock, uint64(c))
	b := newBatcher(buf, emit)
	ws, sum := g.w, g.sum
	n := int64(len(ws))
	t0 := g.tail0
	var wt float64
	if t0 < n {
		wt = ws[n-1]
	}
	// Head rows: sweep the varying-weight head columns, then fill the
	// constant tail rectangle. Float-expression caches as in the oracle
	// core: identical input bits give identical output bits.
	lastP := math.NaN()
	var lastLog float64
	headEnd := r[1]
	if headEnd > t0 {
		headEnd = t0
	}
	for i := r[0]; i < headEnd; i++ {
		wu := ws[i]
		if wu == 0 {
			break // weights are non-increasing: every later row is empty too
		}
		j := i + 1
		if j < t0 {
			p := wu * ws[j] / sum
			if p > 1 {
				p = 1
			}
			lastW, lastQ := ws[j], p
			for j < t0 && p > 0 {
				if p < 1 {
					if p != lastP {
						lastP, lastLog = p, math.Log1p(-p)
					}
					j += st.s.GeometricLog(lastLog)
				}
				if j >= t0 {
					break
				}
				if w := ws[j]; w != lastW {
					lastW = w
					lastQ = wu * w / sum
					if lastQ > 1 {
						lastQ = 1
					}
				}
				q := lastQ
				if q == p {
					st.s.Uint64()
					if !b.add(i, j) {
						return
					}
				} else if st.s.Float64() < q/p {
					if !b.add(i, j) {
						return
					}
				}
				p = q
				j++
			}
		}
		if wt > 0 && t0 < n {
			p := wu * wt / sum
			if p > 1 {
				p = 1
			}
			if !g.emitConstRect(st, b, i, t0, n-t0, p, rng.FixedThreshold(p)) {
				return
			}
		}
	}
	// All-tail rows: one constant-probability pair region.
	if i0 := maxInt64(r[0], t0); i0 < r[1] && wt > 0 {
		if !g.emitTailTriangle(st, b, i0, r[1]) {
			return
		}
	}
	b.flush()
}
