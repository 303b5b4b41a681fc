package model

import (
	"math"
	"sync"
	"testing"

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
	ws, sum := g.w, g.sum
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
// one NewWorker function across every chunk, and checks each sees the
// serial stream. Run under -race in CI, it proves worker states share
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
		var wg sync.WaitGroup
		for worker := 0; worker < 4; worker++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen := g.NewWorker()
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
