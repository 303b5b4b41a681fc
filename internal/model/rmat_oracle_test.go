package model

import (
	"math"
	"testing"

	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// splitBudgetsBinomial is the pre-blocked chunk-budget split, retained
// as the oracle of TestRMATBlockedMatchesDescentLaw: the same k-level
// u-bit splitting tree as splitBudgets, each node drawn with
// rng.Binomial on its (seed, nsRMATSplit, node) stream.
func (g *RMAT) splitBudgetsBinomial() []int64 {
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

// generateChunkDescent is the pre-blocked chunk core, retained as the
// oracle of TestRMATBlockedMatchesDescentLaw: chunk q's budget is split
// one level at a time down the remaining u-bits (high to low, 0-branch
// first) with the exact conditional law P(u-bit = 1) = c+d, and each
// fully resolved source u splits its count down the v-bits with
// P(v-bit = 1 | u-bit) = pv0 or pv1; singleton tails take one draw per
// level.
func (g *RMAT) generateChunkDescent(q int, budgets []int64, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	eC := budgets[q]
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

// collectDescent regenerates g's full stream through the retained
// oracle: Binomial budgets, level-by-level descent.
func collectDescent(g *RMAT) []stream.Arc {
	var out []stream.Arc
	budgets := g.splitBudgetsBinomial()
	buf := make([]stream.Arc, 0, 256)
	for q := 0; q < g.Chunks(); q++ {
		g.generateChunkDescent(q, budgets, buf, func(full []stream.Arc) []stream.Arc {
			out = append(out, full...)
			return full[:0]
		})
	}
	return out
}

// TestRMATBlockedMatchesDescentLaw is the rmat re-pin's oracle (see
// DESIGN.md, "Digest re-pin policy"): the blocked descent and the
// BinomialFixed budgets draw a different stream than the retained
// level-by-level descent over Binomial budgets, so byte equality is
// unavailable; instead every arc (u, v) must appear as often under one
// as under the other. Over many seeds, each cell's two inclusion counts
// form a 2×2 table whose Pearson statistic is χ²(1) under equal laws;
// their sum over the cells seen must lie within df ± 4√(2·df). The size
// puts chunk 0's budget above rmatAliasMax (the per-level split path),
// everything below it on the alias tables, and blocks of width 1, 2
// and 4 in the descent.
func TestRMATBlockedMatchesDescentLaw(t *testing.T) {
	const scale, edges, chunks = 6, 600, 2
	const seeds = 6000
	const n = 1 << scale
	countNew := make([]float64, n*n)
	countOld := make([]float64, n*n)
	var arcsNew, arcsOld float64
	split := 0
	for seed := uint64(0); seed < seeds; seed++ {
		g, err := NewRMAT(scale, edges, 0.57, 0.19, 0.19, 0.05, seed, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if g.budgets[0] > rmatAliasMax {
			split++
		}
		for _, a := range Collect(g) {
			countNew[a.U*n+a.V]++
			arcsNew++
		}
		for _, a := range collectDescent(g) {
			countOld[a.U*n+a.V]++
			arcsOld++
		}
	}
	if split == 0 {
		t.Fatal("no chunk budget above rmatAliasMax: the per-level split path is untested")
	}
	var chi2, maxZ float64
	df := 0
	for i := range countNew {
		x, y := countNew[i], countOld[i]
		m := x + y
		if m == 0 || m == 2*seeds {
			continue
		}
		z2 := (x - y) * (x - y) * 2 * seeds / (m * (2*seeds - m))
		chi2 += z2
		maxZ = math.Max(maxZ, math.Sqrt(z2))
		df++
	}
	tol := 4 * math.Sqrt(2*float64(df))
	t.Logf("%d cells, chi-square %.0f (want %d ± %.0f), max |z| %.2f, %.2f vs %.2f arcs/seed, split path in %d seeds",
		df, chi2, df, tol, maxZ, arcsNew/seeds, arcsOld/seeds, split)
	if math.Abs(chi2-float64(df)) > tol {
		t.Errorf("blocked vs level-by-level inclusion: chi-square %.0f over %d cells, outside %d ± %.0f", chi2, df, df, tol)
	}
}

// TestRMATBlockTablesMatchLevelLaw checks every alias table against the
// law it replaces: for each block width and (for v-tables) each pattern
// of the source's bits, the probability a table gives each outcome —
// its column's kept share plus the shares aliased to it, over 2^w
// columns — equals the product of the per-level laws the fixed-point
// thresholds encode, within 1e-15, and an outcome of probability zero
// is never drawn. The weights cover the defaults, a non-default
// quadrant split and a zero-weight quadrant. Each column's threshold
// boundary is also drawn through outcome, so the law read off the
// entries is the law draws see.
func TestRMATBlockTablesMatchLevelLaw(t *testing.T) {
	for _, wts := range [][4]float64{
		{0.57, 0.19, 0.19, 0.05},
		{0.45, 0.15, 0.25, 0.15},
		{0.6, 0.25, 0.15, 0},
	} {
		g, err := NewRMAT(10, 100, wts[0], wts[1], wts[2], wts[3], 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var tab rmatTables
		tab.build(g)
		u := rmatLevelLaw(g.thrU1)
		v := [2][2]float64{rmatLevelLaw(g.thrV0), rmatLevelLaw(g.thrV1)}
		for w := uint(1); w <= rmatBlock; w++ {
			levels := make([][2]float64, w)
			for i := range levels {
				levels[i] = u
			}
			checkRMATTable(t, wts, "u", &tab.u[w-1], w, levels)
			for x := range 1 << w {
				for i := range levels {
					levels[i] = v[x>>i&1]
				}
				checkRMATTable(t, wts, "v", &tab.v[w-1][x], w, levels)
			}
		}
	}
}

// checkRMATTable compares the law of tab (w levels) with the product of
// levels[i], the law of the level at bit i of the pattern.
func checkRMATTable(t *testing.T, wts [4]float64, kind string, tab *rmatTable, w uint, levels [][2]float64) {
	t.Helper()
	k := 1 << w
	var got [1 << rmatBlock]float64
	for c := range k {
		thr, alias := tab[c]&rmatThrMask, tab[c]>>rmatAliasBit
		if thr > rmatFull || alias >= uint64(k) {
			t.Fatalf("%v %s-table width %d: column %d has threshold %d, alias %d", wts, kind, w, c, thr, alias)
		}
		top := uint64(c) << (64 - w)
		if thr > 0 && tab.outcome(top|(thr-1), w) != uint64(c) {
			t.Errorf("%v %s-table width %d: a draw below column %d's threshold was not kept", wts, kind, w, c)
		}
		if thr < rmatFull && tab.outcome(top|thr, w) != alias {
			t.Errorf("%v %s-table width %d: a draw at column %d's threshold did not go to its alias", wts, kind, w, c)
		}
		got[c] += float64(thr) / (1 << 53) / float64(k)
		got[alias] += float64(rmatFull-thr) / (1 << 53) / float64(k)
	}
	for o := range k {
		want := 1.0
		for i, law := range levels {
			want *= law[o>>i&1]
		}
		if math.Abs(got[o]-want) > 1e-15 || want == 0 && got[o] != 0 {
			t.Errorf("%v %s-table width %d, levels %v: outcome %0*b has probability %.17g, levels give %.17g",
				wts, kind, w, levels, int(w), o, got[o], want)
		}
	}
}
