package rng

import (
	"math"
	"testing"
)

// thresholdCases spans the full threshold range: the endpoints, exact
// k/2^53 grid points and their float neighbors, subnormal-adjacent
// values, and NaN.
func thresholdCases() []float64 {
	cases := []float64{
		0, 1, -1, 0.5, 0.25, 1.0 / 3, 2.0 / 3, 0.57, 0.76, 0.999999,
		1 - 0x1p-53,               // largest float64 below 1
		0x1p-53, 0x1p-52, 0x1p-60, // grid unit and below
		math.SmallestNonzeroFloat64,              // smallest subnormal
		2 * math.SmallestNonzeroFloat64,          // subnormal-adjacent
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		0x1p-1022,                                // smallest normal
		math.NaN(),                               // must behave like p <= 0
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		2, 1.5, math.Inf(1), math.Inf(-1), // out-of-range clamps
	}
	// Exact grid points k/2^53 and their neighbors.
	for _, k := range []uint64{1, 2, 3, 1000, 1 << 30, 1<<53 - 1} {
		p := float64(k) / (1 << 53)
		cases = append(cases, p, math.Nextafter(p, 0), math.Nextafter(p, 2))
	}
	return cases
}

// TestFixedThresholdExact checks the defining property of FixedThreshold
// against the float path directly, without a generator: for every
// representable draw value k, k < FixedThreshold(p) must equal
// float64(k)/2^53 < p.
func TestFixedThresholdExact(t *testing.T) {
	ks := []uint64{0, 1, 2, 3, 1000, 1 << 20, 1 << 30, 1<<52 + 12345, 1<<53 - 2, 1<<53 - 1}
	g := New(99)
	for i := 0; i < 4096; i++ {
		ks = append(ks, g.Uint64()>>11)
	}
	for _, p := range thresholdCases() {
		thr := FixedThreshold(p)
		if thr > 1<<53 {
			t.Fatalf("FixedThreshold(%v) = %d out of [0, 2^53]", p, thr)
		}
		for _, k := range ks {
			want := float64(k)/(1<<53) < p
			if got := k < thr; got != want {
				t.Fatalf("p=%v (thr=%d), k=%d: fixed-point compare %v, float compare %v", p, thr, k, got, want)
			}
		}
	}
}

// TestBelowMatchesFloat64 runs two identically seeded generators side by
// side and checks the decisions AND the consumed state agree draw for
// draw, for every threshold case.
func TestBelowMatchesFloat64(t *testing.T) {
	for _, p := range thresholdCases() {
		thr := FixedThreshold(p)
		gf, gi := New(12345), New(12345)
		for i := 0; i < 2000; i++ {
			want := gf.Float64() < p
			if got := gi.Below(thr); got != want {
				t.Fatalf("p=%v draw %d: Below %v, Float64 compare %v", p, i, got, want)
			}
		}
		if gf.s != gi.s {
			t.Fatalf("p=%v: generator states diverged", p)
		}
	}
}

// TestFillMatchesUint64 checks Fill is draw-for-draw identical to the
// same number of Uint64 calls, including the final state.
func TestFillMatchesUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
		ga, gb := New(7), New(7)
		dst := make([]uint64, n)
		ga.Fill(dst)
		for i, got := range dst {
			if want := gb.Uint64(); got != want {
				t.Fatalf("Fill(%d)[%d] = %d, Uint64 sequence gives %d", n, i, got, want)
			}
		}
		if ga.s != gb.s {
			t.Fatalf("Fill(%d): generator states diverged", n)
		}
	}
}

// TestUnitUniformMatchesFloat64 checks the batched UnitUniform body is
// draw-for-draw identical to per-slot Float64 calls.
func TestUnitUniformMatchesFloat64(t *testing.T) {
	ga, gb := New(11), New(11)
	dst := make([]float64, 257)
	ga.UnitUniform(dst)
	for i, got := range dst {
		if want := gb.Float64(); got != want {
			t.Fatalf("UnitUniform[%d] = %v, Float64 sequence gives %v", i, got, want)
		}
	}
	if ga.s != gb.s {
		t.Fatal("generator states diverged")
	}
}

// TestBinomialFixedLaw sanity-checks BinomialFixed across its three
// regimes: exact edge cases, and sample mean/variance within generous
// bounds of the binomial law.
func TestBinomialFixedLaw(t *testing.T) {
	g := New(2024)
	if got := g.BinomialFixed(100, 0, FixedThreshold(0)); got != 0 {
		t.Fatalf("BinomialFixed(n, p=0) = %d, want 0", got)
	}
	if got := g.BinomialFixed(100, 1, FixedThreshold(1)); got != 100 {
		t.Fatalf("BinomialFixed(n, p=1) = %d, want 100", got)
	}
	if got := g.BinomialFixed(0, 0.5, FixedThreshold(0.5)); got != 0 {
		t.Fatalf("BinomialFixed(0, p) = %d, want 0", got)
	}
	cases := []struct {
		n int64
		p float64
	}{
		{40, 0.24},     // Bernoulli-count regime
		{64, 0.76},     // regime boundary
		{65, 0.76},     // zig-zag regime, just past the cutover
		{5000, 0.19},   // zig-zag regime
		{1 << 37, 0.5}, // normal-approximation regime
	}
	for _, tc := range cases {
		thr := FixedThreshold(tc.p)
		const samples = 20000
		var sum, sumSq float64
		for i := 0; i < samples; i++ {
			k := float64(g.BinomialFixed(tc.n, tc.p, thr))
			sum += k
			sumSq += k * k
		}
		mean := sum / samples
		variance := sumSq/samples - mean*mean
		wantMean := float64(tc.n) * tc.p
		wantVar := wantMean * (1 - tc.p)
		// Mean of `samples` iid draws has sd sqrt(wantVar/samples); allow 6 sd.
		if tol := 6 * math.Sqrt(wantVar/samples); math.Abs(mean-wantMean) > tol {
			t.Errorf("BinomialFixed(%d, %v): mean %v, want %v ± %v", tc.n, tc.p, mean, wantMean, tol)
		}
		if variance < 0.8*wantVar || variance > 1.2*wantVar {
			t.Errorf("BinomialFixed(%d, %v): variance %v, want ≈ %v", tc.n, tc.p, variance, wantVar)
		}
	}
}

// TestBinomialFixedSmallRegimeExact cross-checks the Bernoulli-count
// regime against counting Below draws by hand from the same state.
func TestBinomialFixedSmallRegimeExact(t *testing.T) {
	const p = 0.37
	thr := FixedThreshold(p)
	for n := int64(1); n <= smallFixedTrials; n += 7 {
		ga, gb := New(uint64(n)), New(uint64(n))
		got := ga.BinomialFixed(n, p, thr)
		var want int64
		for i := int64(0); i < n; i++ {
			if gb.Below(thr) {
				want++
			}
		}
		if got != want || ga.s != gb.s {
			t.Fatalf("n=%d: BinomialFixed %d (state %v), manual count %d (state %v)", n, got, ga.s, want, gb.s)
		}
	}
}
