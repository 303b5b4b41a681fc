package rng

import (
	"math"
	"testing"
)

func TestGeometricBasics(t *testing.T) {
	g := New(3)
	// p = 1: log1p(-1) = -Inf, and every finite log over -Inf is 0.
	for i := 0; i < 1000; i++ {
		if got := g.GeometricLog(math.Log1p(-1)); got != 0 {
			t.Fatalf("GeometricLog(-Inf) = %d, want 0", got)
		}
	}
	l := math.Log1p(-0.3)
	for i := 0; i < 10000; i++ {
		if v := g.GeometricLog(l); v < 0 {
			t.Fatalf("GeometricLog(log1p(-0.3)) = %d < 0", v)
		}
	}
	// A vanishing p must cap, not overflow: at p = 1e-300 every draw
	// but u = 0 is past the cap.
	l = math.Log1p(-1e-300)
	capped := 0
	for i := 0; i < 100; i++ {
		v := g.GeometricLog(l)
		if v < 0 || v > maxGeometric {
			t.Fatalf("GeometricLog(log1p(-1e-300)) = %d out of [0, cap]", v)
		}
		if v == maxGeometric {
			capped++
		}
	}
	if capped != 100 {
		t.Fatalf("GeometricLog(log1p(-1e-300)) hit the cap %d/100 times", capped)
	}
}

// TestGeometricLogOneDrawInversion pins GeometricLog's draw layout: one
// Float64 per call, inverted as floor(log1p(-u) / log1mP) below the cap.
func TestGeometricLogOneDrawInversion(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 0x1p-53} {
		l := math.Log1p(-p)
		ga, gb := New(5), New(5)
		for i := 0; i < 5000; i++ {
			want := math.Floor(math.Log1p(-gb.Float64()) / l)
			if got := ga.GeometricLog(l); float64(got) != math.Min(want, float64(maxGeometric)) {
				t.Fatalf("p=%v draw %d: GeometricLog %d, inversion %v", p, i, got, want)
			}
		}
		if ga.s != gb.s {
			t.Fatalf("p=%v: generator states diverged", p)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	// E[GeometricLog(log1p(-p))] = (1-p)/p.
	g := New(11)
	for _, p := range []float64{0.5, 0.1, 0.01} {
		const trials = 20000
		l := math.Log1p(-p)
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(g.GeometricLog(l))
		}
		mean := sum / trials
		want := (1 - p) / p
		sd := math.Sqrt((1-p)/(p*p)) / math.Sqrt(trials)
		if math.Abs(mean-want) > 6*sd {
			t.Errorf("p=%v: mean = %.3f, want %.3f ± %.3f", p, mean, want, 6*sd)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	g := New(7)
	if got := g.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := g.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := g.Binomial(10, -1); got != 0 {
		t.Errorf("Binomial(10, -1) = %d", got)
	}
	if got := g.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
	if got := g.Binomial(10, 2); got != 10 {
		t.Errorf("Binomial(10, 2) = %d", got)
	}
	for i := 0; i < 5000; i++ {
		if v := g.Binomial(20, 0.3); v < 0 || v > 20 {
			t.Fatalf("Binomial(20, .3) = %d out of range", v)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	g := New(19)
	for _, tc := range []struct {
		n int64
		p float64
	}{{100, 0.02}, {1000, 0.5}, {50, 0.9}} {
		const trials = 4000
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			v := float64(g.Binomial(tc.n, tc.p))
			sum += v
			sumSq += v * v
		}
		mean := sum / trials
		wantMean := float64(tc.n) * tc.p
		wantVar := float64(tc.n) * tc.p * (1 - tc.p)
		seMean := math.Sqrt(wantVar / trials)
		if math.Abs(mean-wantMean) > 6*seMean {
			t.Errorf("Binomial(%d, %v): mean = %.2f, want %.2f ± %.2f",
				tc.n, tc.p, mean, wantMean, 6*seMean)
		}
		variance := sumSq/trials - mean*mean
		if variance < wantVar*0.8 || variance > wantVar*1.2 {
			t.Errorf("Binomial(%d, %v): var = %.2f, want ≈ %.2f",
				tc.n, tc.p, variance, wantVar)
		}
	}
}

func TestBinomialDeterministic(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 200; i++ {
		if va, vb := a.Binomial(1000, 0.37), b.Binomial(1000, 0.37); va != vb {
			t.Fatalf("draw %d: %d != %d with equal states", i, va, vb)
		}
	}
}

func TestNewStream2Independence(t *testing.T) {
	// Distinct namespaces and distinct ids must both separate streams;
	// equal triples must reproduce.
	pairs := [][2]*Xoshiro256{
		{NewStream2(7, 1, 0), NewStream2(7, 1, 1)},
		{NewStream2(7, 1, 0), NewStream2(7, 2, 0)},
		{NewStream2(7, 1, 3), NewStream2(8, 1, 3)},
	}
	for pi, pr := range pairs {
		same := 0
		for i := 0; i < 100; i++ {
			if pr[0].Uint64() == pr[1].Uint64() {
				same++
			}
		}
		if same > 0 {
			t.Errorf("pair %d: %d/100 identical outputs", pi, same)
		}
	}
	a, b := NewStream2(42, 9, 9), NewStream2(42, 9, 9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("equal stream ids diverged at step %d", i)
		}
	}
	// A two-level id must not collapse onto the one-level derivation with
	// the same trailing id (the namespaces are separate).
	c, d := NewStream2(42, 0, 5), NewStream(42, 5)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("NewStream2(seed,0,id) collides with NewStream(seed,id): %d/100", same)
	}
}

// TestBinomialHugeN pins the large-n regression: beyond the zig-zag
// sampler's numeric range the clamped normal branch must return
// instantly (the naive pmf sweep degenerated to O(n) there) with the
// right mean.
func TestBinomialHugeN(t *testing.T) {
	g := New(42)
	const huge = int64(1_000_000_000_000_000)
	for i := 0; i < 50; i++ {
		if v := g.Binomial(huge, 0.5); v < 0 || v > huge {
			t.Fatalf("out of range: %d", v)
		}
	}
	var sum float64
	const trials = 400
	for i := 0; i < trials; i++ {
		sum += float64(g.Binomial(1<<40, 0.25))
	}
	mean := sum / trials
	want := 0.25 * float64(int64(1)<<40)
	if mean < want*0.999 || mean > want*1.001 {
		t.Fatalf("huge-n mean %.0f, want ≈ %.0f", mean, want)
	}
}

func TestUnitUniform(t *testing.T) {
	g := New(9)
	var sum float64
	buf := make([]float64, 3)
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		g.UnitUniform(buf)
		for _, v := range buf {
			if v < 0 || v >= 1 {
				t.Fatalf("coordinate %v outside [0, 1)", v)
			}
			sum += v
		}
	}
	if mean := sum / (3 * rounds); mean < 0.49 || mean > 0.51 {
		t.Errorf("UnitUniform mean %v far from 0.5", mean)
	}
	// Consuming exactly len(dst) draws: interleaving with Float64 must
	// match a straight Float64 sequence.
	a, b := New(4), New(4)
	var got, want [4]float64
	a.UnitUniform(got[:2])
	got[2], got[3] = a.Float64(), a.Float64()
	for i := range want {
		want[i] = b.Float64()
	}
	if got != want {
		t.Errorf("UnitUniform draw layout differs from Float64 sequence: %v != %v", got, want)
	}
}

// TestUnitUniformSoAMatchesScalar pins the draw layout of the
// structure-of-arrays fills: UnitUniform2/3 must produce exactly the
// per-point x, y(, z) order of repeated small UnitUniform calls, so the
// spatial generators' switch from AoS to SoA buffers cannot move a
// sampled bit.
func TestUnitUniformSoAMatchesScalar(t *testing.T) {
	const n = 513 // odd, > any unrolling the fill could use
	for _, dim := range []int{2, 3} {
		a, b := New(77), New(77)
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		if dim == 2 {
			a.UnitUniform2(x, y)
		} else {
			a.UnitUniform3(x, y, z)
		}
		pt := make([]float64, dim)
		for i := 0; i < n; i++ {
			b.UnitUniform(pt)
			if x[i] != pt[0] || y[i] != pt[1] {
				t.Fatalf("dim=%d point %d: SoA (%v, %v) != scalar (%v, %v)",
					dim, i, x[i], y[i], pt[0], pt[1])
			}
			if dim == 3 && z[i] != pt[2] {
				t.Fatalf("dim=3 point %d: z %v != scalar %v", i, z[i], pt[2])
			}
		}
		// Final generator state must agree too: downstream draws after a
		// fill must be unaffected by the layout.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("dim=%d: generator state diverged after fill", dim)
		}
	}
}

// TestHyperbolicRadius checks the truncated sinh(α·r) sampler: every
// sample stays in its band [rLo, rHi), the empirical CDF matches the
// analytic (cosh(α·r)−cosh(α·rLo))/span law at interior quantiles, and
// each call consumes exactly one draw.
func TestHyperbolicRadius(t *testing.T) {
	const alpha, rLo, rHi = 0.95, 2.0, 3.5
	coshLo := math.Cosh(alpha * rLo)
	span := math.Cosh(alpha*rHi) - coshLo
	g := New(5)
	const trials = 40000
	samples := make([]float64, trials)
	for i := range samples {
		r := g.HyperbolicRadius(1/alpha, coshLo, span)
		if r < rLo || r >= rHi {
			t.Fatalf("sample %v outside [%v, %v)", r, rLo, rHi)
		}
		samples[i] = r
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		// Analytic quantile: r with F(r) = q.
		rq := math.Acosh(coshLo+q*span) / alpha
		var below float64
		for _, r := range samples {
			if r < rq {
				below++
			}
		}
		emp := below / trials
		sd := math.Sqrt(q * (1 - q) / trials)
		if math.Abs(emp-q) > 6*sd {
			t.Errorf("quantile %v: empirical CDF %.4f, want %.4f ± %.4f", q, emp, q, 6*sd)
		}
	}
	// Exactly one draw per call: two generators from the same seed, one
	// advanced by HyperbolicRadius and one by Float64, must stay in step.
	a, b := New(9), New(9)
	for i := 0; i < 100; i++ {
		a.HyperbolicRadius(1/alpha, coshLo, span)
		b.Float64()
	}
	if a.Uint64() != b.Uint64() {
		t.Error("HyperbolicRadius does not consume exactly one draw")
	}
}
