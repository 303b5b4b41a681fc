package model

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"weak"

	"kronvalid/internal/rng"
	"kronvalid/internal/stream"
)

// nsCLChunk is the stream-id namespace of the bucketed-sweep oracle
// core's chunk streams (the production blockwise core draws under
// nsCLBlock).
const nsCLChunk = 0x636c_7501

// generateChunkBucketed is the pre-blockwise production core, retained
// as the distribution-equivalence oracle (TestChungLuBlockwiseMatches
// BucketedDistribution): the Miller–Hagberg bucketed sweep over chunk
// c's rows — for row i, candidate columns j > i are visited with
// geometric skips under the row's maximal probability and thinned to
// the exact per-pair probability, O(expected edges) per row — on its
// own (seed, nsCLChunk, c) streams.
func (g *ChungLu) generateChunkBucketed(c int, buf []stream.Arc, emit func([]stream.Arc) []stream.Arc) {
	r := g.rows[c]
	if r[0] >= r[1] || g.sum <= 0 {
		return
	}
	s := rng.NewStream2(g.seed, nsCLChunk, uint64(c))
	b := newBatcher(buf, emit)
	ws, sum := g.materialize(), g.sum
	n := int64(len(ws))
	// Both per-candidate float expressions repeat bit-for-bit whenever
	// the column weight repeats (the whole dmin-floored tail is one
	// constant run), so each is cached by exact float equality —
	// identical input bits give identical output bits, so no draw and
	// no byte changes. lastP/lastLog cache the skip parameter's log1p,
	// the dominant flat cost; lastW/lastQ cache the candidate
	// probability q = wu·w[j]/sum, saving the divide.
	lastP := math.NaN()
	var lastLog float64
	for i := r[0]; i < r[1]; i++ {
		wu := ws[i]
		if wu == 0 {
			break // weights are non-increasing: every later row is empty too
		}
		j := i + 1
		if j >= n {
			continue
		}
		p := wu * ws[j] / sum
		if p > 1 {
			p = 1
		}
		lastW, lastQ := ws[j], p
		for j < n && p > 0 {
			if p < 1 {
				if p != lastP {
					lastP, lastLog = p, math.Log1p(-p)
				}
				j += s.GeometricLog(lastLog)
			}
			if j >= n {
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
				// fl(q/p) = 1 exactly and Float64() < 1 always holds, so
				// accept after consuming the thinning draw, skipping the
				// division and float compare — the hot case whenever
				// neighboring weights are equal.
				s.Uint64()
				if !b.add(i, j) {
					return
				}
			} else if s.Float64() < q/p {
				if !b.add(i, j) {
					return
				}
			}
			p = q
			j++
		}
	}
	b.flush()
}

// oracleWeights builds a small registry-shaped weight sequence spanning
// all three regions of the blockwise core: saturated head pairs
// (w_i·w_j ≥ Σw), varying-weight head columns, and a constant
// dmin-floored tail.
func oracleWeights(n int) []float64 {
	const dmax, dmin, gamma = 30.0, 1.0, 1.8
	w := make([]float64, n)
	exp := -1 / (gamma - 1)
	for i := range w {
		w[i] = dmax * math.Pow(float64(i+1), exp)
		if w[i] < dmin {
			w[i] = dmin
		}
	}
	return w
}

// collectBucketed regenerates the full stream through the retained
// bucketed oracle core.
func collectBucketed(g *ChungLu) []stream.Arc {
	var out []stream.Arc
	buf := make([]stream.Arc, 0, 256)
	for c := 0; c < g.Chunks(); c++ {
		g.generateChunkBucketed(c, buf, func(full []stream.Arc) []stream.Arc {
			out = append(out, full...)
			return full[:0]
		})
	}
	return out
}

// TestChungLuBlockwiseMatchesBucketedDistribution is the digest
// re-pin's oracle (see DESIGN.md, "Digest re-pin policy"): the
// blockwise production core draws a different stream than the retained
// bucketed core, so byte equality is unavailable — instead, both cores
// realize the same per-pair Bernoulli law min(1, w_i·w_j/Σw), checked
// here three ways over many seeds: (1) every pair's blockwise frequency
// matches its analytic probability, (2) every pair's two empirical
// frequencies agree within binomial noise, (3) saturated pairs (p = 1)
// appear in every single graph under both cores.
func TestChungLuBlockwiseMatchesBucketedDistribution(t *testing.T) {
	const n = 48
	const seeds = 1500
	w := oracleWeights(n)
	var sum float64
	for _, x := range w {
		sum += x
	}
	pairIdx := func(i, j int64) int { return int(i)*n + int(j) }
	countNew := make([]int64, n*n)
	countOld := make([]int64, n*n)
	for seed := uint64(0); seed < seeds; seed++ {
		g, err := NewChungLu(w, seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range Collect(g) {
			countNew[pairIdx(a.U, a.V)]++
		}
		for _, a := range collectBucketed(g) {
			countOld[pairIdx(a.U, a.V)]++
		}
	}
	sawSaturated := false
	for i := int64(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := w[i] * w[j] / sum
			if p > 1 {
				p = 1
			}
			cN, cO := countNew[pairIdx(i, j)], countOld[pairIdx(i, j)]
			if p == 1 {
				sawSaturated = true
				if cN != seeds || cO != seeds {
					t.Fatalf("pair (%d,%d) is saturated but appeared %d/%d (blockwise/bucketed) of %d graphs", i, j, cN, cO, seeds)
				}
				continue
			}
			fN, fO := float64(cN)/seeds, float64(cO)/seeds
			// (1) blockwise marginal vs the analytic law, 6 sd + quantization slack.
			if tol := 6*math.Sqrt(p*(1-p)/seeds) + 2.0/seeds; math.Abs(fN-p) > tol {
				t.Errorf("pair (%d,%d): blockwise frequency %v vs analytic p %v (tol %v)", i, j, fN, p, tol)
			}
			// (2) blockwise vs bucketed, 6 sd of the paired difference.
			ph := (fN + fO) / 2
			if tol := 6*math.Sqrt(2*ph*(1-ph)/seeds) + 2.0/seeds; math.Abs(fN-fO) > tol {
				t.Errorf("pair (%d,%d): blockwise frequency %v vs bucketed %v (tol %v)", i, j, fN, fO, tol)
			}
		}
	}
	if !sawSaturated {
		t.Fatal("oracle weights produced no saturated pair; the p=1 region is untested")
	}
}

// TestChungLuWorkerStateReuseRace drives the scratch-reusing cores
// (chunglu, ba) from several goroutines at once, each goroutine reusing
// one worker of a shared run across every chunk, and checks each sees
// the serial stream. Run under -race in CI, it proves worker states share
// no hidden mutable state through their generator.
func TestChungLuWorkerStateReuseRace(t *testing.T) {
	for _, spec := range []string{
		"chunglu:n=3000,dmax=60,gamma=2.4,seed=5",
		"ba:n=2000,d=3,seed=15",
	} {
		g, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := Collect(g)
		newWorker := g.NewRun()
		var wg sync.WaitGroup
		for worker := 0; worker < 4; worker++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen := newWorker()
				var out []stream.Arc
				buf := make([]stream.Arc, 0, 256)
				for c := 0; c < g.Chunks(); c++ {
					gen(c, buf, func(full []stream.Arc) []stream.Arc {
						out = append(out, full...)
						return full[:0]
					})
				}
				if !sameArcs(out, want) {
					t.Errorf("%s: concurrent worker-state stream differs from serial stream (%d vs %d arcs)", spec, len(out), len(want))
				}
			}()
		}
		wg.Wait()
	}
}

// materialize returns the generator's weight sequence as n floats.
func (g *ChungLu) materialize() []float64 {
	w := make([]float64, g.n)
	for i := range w {
		w[i] = g.weight(int64(i))
	}
	return w
}

// partitionArray is the former ChungLu.partition over a materialized
// weight sequence w with sum Σw, retained as the oracle of
// TestChungLuPartitionMatchesPrefixArray and TestChungLuRunMatches
// MaterializedWeights: the same row works and the same forward prefix
// sum, held as one full array and cut with sort.SearchFloat64s.
func partitionArray(w []float64, sum float64, chunks int) (rows [][2]int64, work []int64) {
	n := int64(len(w))
	nRows := max(n-1, 0)
	chunks = normalizeChunks(chunks, max(nRows, 1))
	prefix := make([]float64, nRows+1)
	suffix := 0.0
	invSum := 0.0
	if sum > 0 {
		invSum = 1 / sum
	}
	for i := n - 1; i >= 0; i-- {
		if i < nRows {
			prefix[i+1] = 1 + w[i]*suffix*invSum
		}
		suffix += w[i]
	}
	for i := int64(0); i < nRows; i++ {
		prefix[i+1] += prefix[i]
	}
	total := prefix[nRows]
	prev := 0
	for s := 0; s < chunks; s++ {
		hi := int(nRows)
		if s < chunks-1 {
			target := total * float64(s+1) / float64(chunks)
			hi = min(prev+sort.SearchFloat64s(prefix[prev:], target), int(nRows))
		}
		rows = append(rows, [2]int64{int64(prev), int64(hi)})
		work = append(work, 1+int64(prefix[hi]-prefix[prev]))
		prev = hi
	}
	return rows, work
}

// TestChungLuPartitionMatchesPrefixArray checks that replaying blocks
// from every 64th running sum cuts exactly where the full prefix array
// did, with the same per-chunk work: across vertex counts around the
// block stride, chunk counts past the row count, a heavy head over a
// flat tail, all-zero and single-value weights, and the benchmark's
// four million vertices.
func TestChungLuPartitionMatchesPrefixArray(t *testing.T) {
	specs := []string{
		"chunglu:n=4000000,dmin=8,dmax=2000,gamma=2.1,seed=1",
		"chunglu:n=20000,dmax=120,gamma=2.5,seed=1",
		"chunglu:n=3000,dmax=2000,dmin=300,gamma=2.1,seed=1",
		"chunglu:n=5000,dmin=0,dmax=0,seed=1",
	}
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1000} {
		specs = append(specs, fmt.Sprintf("chunglu:n=%d,dmax=40,gamma=2.2,seed=1", n))
	}
	for _, spec := range specs {
		for _, chunks := range []int{1, 7, 64, 1500} {
			gen, err := New(fmt.Sprintf("%s,chunks=%d", spec, chunks))
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			g := gen.(*ChungLu)
			rows, work := partitionArray(g.materialize(), g.sum, chunks)
			if !slices.Equal(g.rows, rows) || !slices.Equal(g.work, work) {
				t.Fatalf("%s, chunks=%d: partition differs from the prefix-array cuts", spec, chunks)
			}
		}
	}
}

// chungLuWeightsOracle is the former registry weight loop, retained as
// the oracle of the run form: it materializes all n weights and derives
// Σw (left to right) and tail0 exactly as the builder did.
func chungLuWeightsOracle(n int64, dmax, dmin, gamma float64) (weights []float64, sum float64, tail0 int64) {
	weights = make([]float64, n)
	exp := -1 / (gamma - 1)
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
		tail0 = int64(floored)
	}
	return weights, sum, tail0
}

// weightDigestOracle is the former slice form of weightDigest.
func weightDigestOracle(w []float64) uint64 {
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

// chungLuRunCases spans the run form's edge cases: n ∈ {0, 1, 2}, the
// benchmark spec, no floor (dmin = 0, all head), dmin = dmax (all
// tail), a large γ whose head never reaches the floor, and a γ so large
// that the last weights tie, so the constant run is the head's own
// suffix rather than dmin.
var chungLuRunCases = []struct {
	n                 int64
	dmax, dmin, gamma float64
}{
	{0, 0, 0, 2.5},
	{1, 5, 1, 2.5},
	{2, 5, 1, 2.5},
	{4000000, 2000, 8, 2.1},
	{100000, 2000, 0, 2.1},
	{100000, 8, 8, 2.5},
	{200000, 300, 1, 40},
	{200000, 300, 0, 1e12},
}

// TestChungLuRunMatchesMaterializedWeights checks that the run form
// changes nothing: for every case, the registry generator and
// NewChungLu over the oracle's n floats both read every weight, Σw and
// tail0 bit for bit as the oracle, cut the same chunks with the same
// work as partitionArray over the full slice, and NewChungLu's Name
// carries the slice digest.
func TestChungLuRunMatchesMaterializedWeights(t *testing.T) {
	sawTie := false
	for _, c := range chungLuRunCases {
		w, sum, tail0 := chungLuWeightsOracle(c.n, c.dmax, c.dmin, c.gamma)
		if c.n > 1 && tail0 < c.n-1 && w[c.n-1] > c.dmin {
			sawTie = true
		}
		for _, chunks := range []int{7, 64} {
			spec := fmt.Sprintf("chunglu:n=%d,dmax=%s,dmin=%s,gamma=%s,seed=3,chunks=%d",
				c.n, formatFloat(c.dmax), formatFloat(c.dmin), formatFloat(c.gamma), chunks)
			built, err := New(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			direct, err := NewChungLu(w, 3, chunks)
			if err != nil {
				t.Fatalf("%s: NewChungLu: %v", spec, err)
			}
			rows, work := partitionArray(w, sum, chunks)
			for form, g := range map[string]*ChungLu{"registry": built.(*ChungLu), "NewChungLu": direct} {
				if g.n != c.n || math.Float64bits(g.sum) != math.Float64bits(sum) || g.tail0 != tail0 {
					t.Fatalf("%s (%s): n=%d Σw=%v tail0=%d, oracle n=%d Σw=%v tail0=%d",
						spec, form, g.n, g.sum, g.tail0, c.n, sum, tail0)
				}
				if int64(len(g.head)) != tail0 {
					t.Errorf("%s (%s): %d head weights stored, tail0 = %d", spec, form, len(g.head), tail0)
				}
				for i, x := range w {
					if math.Float64bits(g.weight(int64(i))) != math.Float64bits(x) {
						t.Fatalf("%s (%s): weight(%d) = %v, oracle %v", spec, form, i, g.weight(int64(i)), x)
					}
				}
				if !slices.Equal(g.rows, rows) || !slices.Equal(g.work, work) {
					t.Errorf("%s (%s): chunk rows or work differ from the materialized partition", spec, form)
				}
			}
			want := fmt.Sprintf("chunglu-weights:n=%d,wdigest=%x,seed=3,chunks=%d", c.n, weightDigestOracle(w), len(rows))
			if got := direct.Name(); got != want {
				t.Errorf("%s: NewChungLu Name %q, want %q", spec, got, want)
			}
		}
	}
	if !sawTie {
		t.Error("no case ends in a run of tied head weights above dmin; the large-γ case is vacuous")
	}
}

// TestNewChungLuKeepsOnlyHead checks that NewChungLu copies the head
// and keeps no reference to the caller's slice: once the caller drops
// its n floats, a collection frees them while the generator lives — for
// a floored tail, an all-tail sequence (empty head) and an all-head one.
func TestNewChungLuKeepsOnlyHead(t *testing.T) {
	for _, c := range []struct{ dmax, dmin float64 }{{2000, 8}, {8, 8}, {2000, 0}} {
		w, _, _ := chungLuWeightsOracle(1<<16, c.dmax, c.dmin, 2.1)
		g, err := NewChungLu(w, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		caller := weak.Make(&w[0])
		w = nil
		runtime.GC()
		if caller.Value() != nil {
			t.Errorf("dmax=%v, dmin=%v: the caller's weight slice is still reachable through the generator", c.dmax, c.dmin)
		}
		runtime.KeepAlive(g)
	}
}
