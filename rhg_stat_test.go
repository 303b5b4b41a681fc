package kronvalid

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// rhgDegrees materializes an RHG instance and returns its degree
// sequence in non-increasing order (the shape HillEstimator wants).
func rhgDegrees(t *testing.T, n int64, deg, gamma float64, seed uint64) (*Graph, []int64) {
	t.Helper()
	g, err := ParseGraph(fmt.Sprintf("rhg:n=%d,d=%g,gamma=%g,seed=%d", n, deg, gamma, seed))
	if err != nil {
		t.Fatal(err)
	}
	degs := make([]int64, g.NumVertices())
	for v := range degs {
		degs[v] = int64(g.Degree(int32(v)))
	}
	sort.Slice(degs, func(i, j int) bool { return degs[i] > degs[j] })
	return g, degs
}

// TestRHGDegreeExponent checks the model's defining statistic: the
// degree distribution of a random hyperbolic graph follows a power law
// with exponent γ = 2α + 1, so the Hill estimate over the upper tail
// must track the requested γ. Tolerances are calibrated: at n = 2·10^4
// and k = 500 the estimate lands within ~0.15 of the target across
// seeds, so ±0.35 has wide margin without accepting a mis-derived α
// (which shifts γ by ≥ 0.5 for any interesting parameter error).
func TestRHGDegreeExponent(t *testing.T) {
	for _, gamma := range []float64{2.5, 2.9} {
		_, degs := rhgDegrees(t, 20000, 10, gamma, 1)
		got := HillEstimator(degs, 500)
		if math.Abs(got-gamma) > 0.35 {
			t.Errorf("gamma=%v: Hill estimate %.3f deviates more than 0.35", gamma, got)
		}
	}
}

// TestRHGClusteringAboveNull checks the second defining statistic:
// hyperbolic geometry produces strong local clustering (metric
// triangle inequality → neighbors of a vertex are close to each
// other), while an edge-count-matched G(n, m) null has clustering
// ~d̄/n ≈ 0. Calibrated: the RHG mean local clustering sits near 0.78
// at these parameters and the null near 0.0006, so the 0.2 floor and
// the 20× separation are both order-of-magnitude-safe.
func TestRHGClusteringAboveNull(t *testing.T) {
	g, _ := rhgDegrees(t, 20000, 10, 2.7, 2)
	mean := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v
		}
		return s / float64(len(x))
	}
	rhgC := mean(LocalClusteringCoefficients(g))
	null, err := ParseGraph(fmt.Sprintf("gnm:n=%d,m=%d,seed=2", g.NumVertices(), g.NumEdgesUndirected()))
	if err != nil {
		t.Fatal(err)
	}
	nullC := mean(LocalClusteringCoefficients(null))
	if rhgC < 0.2 {
		t.Errorf("RHG mean local clustering %.4f below 0.2", rhgC)
	}
	if rhgC < 20*nullC {
		t.Errorf("RHG clustering %.4f not above 20× the G(n,m) null %.4f", rhgC, nullC)
	}
}
