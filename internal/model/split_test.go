package model

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"kronvalid/internal/rng"
)

// TestExpandPrefixMatchesDescents is the machine-checked form of the
// order-freedom argument behind expandPrefix (DESIGN.md §2e): whatever
// order the subtrees are expanded in, and on however many goroutines,
// the table equals what plain root descents —
// one independent prefix(c) / count(c) per slot — compute. The three
// tree shapes are the three ways the package weights a tree; the slot
// and total edge cases are where a cut at the grain, a pruned subtree
// or an odd split could go wrong.
func TestExpandPrefixMatchesDescents(t *testing.T) {
	rhg, err := NewRHG(20000, 8, 2.6, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rhg.cells < 1<<12+1 {
		t.Fatalf("rhg tree has %d cells, too few for the largest slot count", rhg.cells)
	}
	tri := func(c int) int64 { return int64(c) * int64(c+1) / 2 }
	shapes := []struct {
		name string
		tree splitTree
	}{
		{"uniform", splitTree{seed: 5, ns: nsRGGSplit,
			weight: func(lo, hi int) int64 { return int64(hi - lo) }}},
		// The real band-weighted tree, cut to a prefix of its cells
		// (the weight function stays exactly additive on any prefix).
		{"skewed", rhg.tree},
		// Slot c has capacity 1000·(c+1), so the largest total below
		// fits the smallest tree and the clamps are reachable.
		{"capacitated", splitTree{seed: 7, ns: nsGnmSplit, capacitated: true,
			weight: func(lo, hi int) int64 { return 1000 * (tri(hi) - tri(lo)) }}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range shapes {
		for _, slots := range []int{1, 2, 251, 1<<12 + 1} {
			for _, total := range []int64{0, 1, 50*int64(slots) + 7} {
				tr := sh.tree
				tr.slots, tr.total = slots, total
				name := fmt.Sprintf("%s slots=%d total=%d", sh.name, slots, total)
				want := make([]int64, slots+1)
				for c := 0; c <= slots; c++ {
					want[c] = tr.prefix(c)
				}
				for c := 0; c < slots; c++ {
					if n := tr.count(c); n != want[c+1]-want[c] {
						t.Fatalf("%s: count(%d) = %d, prefix differences say %d", name, c, n, want[c+1]-want[c])
					}
				}
				for _, procs := range []int{1, 8} {
					runtime.GOMAXPROCS(procs)
					got := tr.expandPrefix()
					if len(got) != slots+1 {
						t.Fatalf("%s procs=%d: table %d", name, procs, len(got))
					}
					for c := 0; c <= slots; c++ {
						if got[c] != want[c] {
							t.Fatalf("%s procs=%d: table[%d] = %d, prefix(%d) = %d", name, procs, c, got[c], c, want[c])
						}
					}
				}
			}
		}
	}
}

// TestSplitDrawLaw is the re-pin evidence for leftShare's draw
// (DESIGN.md §2e): rng.BinomialFixed, which every split-tree node now
// draws with, and rng.Binomial, the draw it superseded, follow the same
// Binomial(m, p) law. First per node: a chi-square of both samplers
// against the exact pmf at trial counts and probabilities straddling
// both samplers' regime edges (64 | 65 trials, m·min(p, 1−p) = 256),
// 0.012 being the skew of rhg's band boundaries. Then per tree: over
// 2400 seeds, every slot's occupancy has the multinomial mean
// total·w_c/W and variance total·π_c(1−π_c) under both draws, for a
// uniform (rgg-shaped) tree and a real rhg tree. The seeds are fixed,
// so the test is deterministic.
func TestSplitDrawLaw(t *testing.T) {
	const samples = 20000
	for _, m := range []int64{2, 17, 64, 65, 300, 4096} {
		for _, p := range []float64{1.0 / 2, 1.0 / 3, 0.012, 0.97} {
			thr := rng.FixedThreshold(p)
			draws := map[string]func(*rng.Xoshiro256) int64{
				"BinomialFixed": func(s *rng.Xoshiro256) int64 { return s.BinomialFixed(m, p, thr) },
				"Binomial":      func(s *rng.Xoshiro256) int64 { return s.Binomial(m, p) },
			}
			for name, draw := range draws {
				s := rng.New(uint64(m)*7919 + uint64(p*1e6))
				hist := make([]float64, m+1)
				for i := 0; i < samples; i++ {
					hist[draw(s)]++
				}
				chi2, df := binomialChiSquare(hist, m, p)
				if crit := chiSquareCritical(df); chi2 > crit {
					t.Errorf("%s(%d, %.4g): chi-square %.1f over %d df, critical %.1f", name, m, p, chi2, df, crit)
				}
			}
		}
	}

	rhg, err := NewRHG(600, 8, 2.6, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	trees := []struct {
		name string
		tree splitTree
	}{
		{"uniform", splitTree{ns: nsRGGSplit, slots: 37, total: 1000,
			weight: func(lo, hi int) int64 { return int64(hi - lo) }}},
		{"rhg", rhg.tree},
	}
	const seeds = 2400
	for _, sh := range trees {
		tr := sh.tree
		w := float64(tr.weight(0, tr.slots))
		for _, draw := range []string{"BinomialFixed", "Binomial"} {
			sum := make([]float64, tr.slots)
			sumSq := make([]float64, tr.slots)
			counts := make([]int64, tr.slots)
			for seed := uint64(0); seed < seeds; seed++ {
				tr.seed = seed
				if draw == "BinomialFixed" {
					p := tr.expandPrefix()
					for c := range counts {
						counts[c] = p[c+1] - p[c]
					}
				} else {
					oracleCounts(&tr, 0, tr.slots, tr.total, counts)
				}
				for c, n := range counts {
					sum[c] += float64(n)
					sumSq[c] += float64(n) * float64(n)
				}
			}
			for c := 0; c < tr.slots; c++ {
				// Slot c's marginal is Binomial(total, π_c): mean, variance
				// and fourth central moment μ4, which sets the standard
				// error of the sample variance, sqrt((μ4 − σ⁴)/seeds).
				n, pi := float64(tr.total), float64(tr.weight(c, c+1))/w
				mean, variance := n*pi, n*pi*(1-pi)
				mu4 := variance * (1 + 3*(n-2)*pi*(1-pi))
				gotMean := sum[c] / seeds
				gotVar := sumSq[c]/seeds - gotMean*gotMean
				if tol := 5.5 * math.Sqrt(variance/seeds); math.Abs(gotMean-mean) > tol {
					t.Errorf("%s tree (%d slots), %s: slot %d mean %.3f, want %.3f ± %.3f",
						sh.name, tr.slots, draw, c, gotMean, mean, tol)
				}
				if tol := 5.5 * math.Sqrt((mu4-variance*variance)/seeds); math.Abs(gotVar-variance) > tol {
					t.Errorf("%s tree (%d slots), %s: slot %d variance %.3f, want %.3f ± %.3f",
						sh.name, tr.slots, draw, c, gotVar, variance, tol)
				}
			}
		}
	}
}

// oracleCounts expands the uncapacitated tree t below the node [lo, hi)
// holding m items into per-slot counts, drawing each node with the
// superseded rng.Binomial on the node's own stream.
func oracleCounts(t *splitTree, lo, hi int, m int64, counts []int64) {
	if hi-lo == 1 {
		counts[lo] = m
		return
	}
	mid := (lo + hi) / 2
	var mLeft int64
	if total := t.weight(lo, hi); total > 0 && m > 0 {
		s := rng.NewStream2(t.seed, t.ns, uint64(lo)<<32|uint64(hi))
		mLeft = s.Binomial(m, float64(t.weight(lo, mid))/float64(total))
	}
	oracleCounts(t, lo, mid, mLeft, counts)
	oracleCounts(t, mid, hi, m-mLeft, counts)
}

// binomialChiSquare returns Pearson's statistic of hist against n·pmf of
// Binomial(m, p), pooling outcomes left to right until each pooled
// class expects at least 5, and its degrees of freedom.
func binomialChiSquare(hist []float64, m int64, p float64) (chi2 float64, df int) {
	var n float64
	for _, h := range hist {
		n += h
	}
	lgM, _ := math.Lgamma(float64(m + 1))
	var expAcc, obsAcc, expDone float64
	classes := 0
	for k := int64(0); k <= m; k++ {
		lgK, _ := math.Lgamma(float64(k + 1))
		lgMK, _ := math.Lgamma(float64(m - k + 1))
		expAcc += n * math.Exp(lgM-lgK-lgMK+float64(k)*math.Log(p)+float64(m-k)*math.Log1p(-p))
		obsAcc += hist[k]
		// Close the class once it expects 5 and what is left does too.
		if k == m || expAcc >= 5 && n-expDone-expAcc >= 5 {
			chi2 += (obsAcc - expAcc) * (obsAcc - expAcc) / expAcc
			classes++
			expDone += expAcc
			expAcc, obsAcc = 0, 0
		}
	}
	return chi2, classes - 1
}

// chiSquareCritical is the Wilson–Hilferty upper 1e-6 point of the
// chi-square law with df degrees of freedom.
func chiSquareCritical(df int) float64 {
	if df < 1 {
		df = 1
	}
	const z = 4.753 // standard normal upper 1e-6 point
	d := float64(df)
	c := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * c * c * c
}

// BenchmarkCellTable times what a spatial generator pays once per
// lifetime and BenchmarkKernels never sees: the cell table of the three
// geo-bin spatial specs (bench/names.go, seeds as -seed 1 derives
// them), on a fresh generator per iteration so the sync.Once cannot
// amortise it over b.N. Run it with -cpu 1,2 (or up to the host's
// cores): ns/cell at -cpu 1 is the serial expansion, the ratio between
// the rows is what the parallel one buys.
func BenchmarkCellTable(b *testing.B) {
	for _, spec := range []string{
		"rgg2d:n=3000000,r=0.001,seed=1001",
		"rgg3d:n=1000000,r=0.0097,seed=1002",
		"rhg:n=700000,d=16,gamma=2.9,seed=1003",
	} {
		b.Run(spec[:strings.IndexByte(spec, ':')], func(b *testing.B) {
			var cells int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := New(spec)
				if err != nil {
					b.Fatal(err)
				}
				tree, ctab := spatialTable(g)
				b.StartTimer()
				if ctab.get(tree) == nil {
					b.Fatalf("%s: %d cells are over the table gate", spec, tree.slots)
				}
				cells = tree.slots
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}
