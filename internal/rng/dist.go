package rng

import (
	"math"
	"math/bits"
)

// maxGeometric caps GeometricLog's return value so that extreme (u, p)
// combinations cannot overflow downstream index arithmetic; any caller
// range is exhausted long before this bound.
const maxGeometric = int64(1) << 62

// smallBinomialCutoff separates the two Binomial regimes: below it the
// geometric-skip counter (O(n·min(p,1-p)) expected) is cheaper than the
// mode-centered sampler's log-gamma setup.
const smallBinomialCutoff = 256

// largeBinomialCutoff is the trial count beyond which the zig-zag
// sampler is numerically unsafe: Lgamma(n) grows like n·ln(n), so for
// n ≈ 2^36 its ulp is already ~2^-12 and the three-term cancellation in
// the mode pmf stays accurate, while by n ≈ 10^14 the cancellation
// error reaches the exponent, the computed mode pmf collapses to ~0 and
// the sweep degenerates to O(n). Above the cutoff a clamped normal
// approximation (relative error O(1/√n) < 10^-5 there) is used instead.
const largeBinomialCutoff = int64(1) << 36

// Binomial returns a sample of the Binomial(n, p) distribution: the
// number of successes in n independent Bernoulli(p) trials. Small means
// (n·min(p,1-p) below a fixed cutoff) count geometric skips; larger ones
// use an exact mode-centered zig-zag inversion whose expected cost is
// O(√(np(1-p))) — what keeps recursive edge-count splitting over
// billions of edges cheap. The regime choice depends only on (n, p) and
// every path consumes draws as a pure function of the generator state,
// so equal states yield equal samples on every machine.
func (g *Xoshiro256) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	q := p
	if q > 0.5 {
		q = 1 - q
	}
	if float64(n)*q <= smallBinomialCutoff {
		if p > 0.5 {
			return n - g.binomialCount(n, 1-p)
		}
		return g.binomialCount(n, p)
	}
	if n > largeBinomialCutoff {
		return g.binomialNormal(n, p)
	}
	return g.binomialZigzag(n, p)
}

// binomialNormal approximates Binomial(n, p) for trial counts beyond
// the zig-zag sampler's numeric range with a clamped rounded normal
// N(np, np(1-p)) via Box–Muller — two uniforms, a pure function of the
// generator state. At n > 2^36 with np(1-p) > smallBinomialCutoff the
// distributional error is far below anything a graph statistic can
// observe.
func (g *Xoshiro256) binomialNormal(n int64, p float64) int64 {
	u1 := 1 - g.Float64() // (0, 1]: keeps the log finite
	u2 := g.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	k := math.Round(float64(n)*p + math.Sqrt(float64(n)*p*(1-p))*z)
	if k < 0 {
		return 0
	}
	if k > float64(n) {
		return n
	}
	return int64(k)
}

// binomialCount counts successes in n trials via geometric skips:
// O(expected successes) draws. Requires 0 < p <= 0.5. The skip
// denominator log1p(-p) is computed once, outside the loop.
func (g *Xoshiro256) binomialCount(n int64, p float64) int64 {
	log1mP := math.Log1p(-p)
	var k, t int64
	t = -1
	for {
		t += 1 + g.GeometricLog(log1mP)
		if t >= n {
			return k
		}
		k++
	}
}

// binomialZigzag samples Binomial(n, p) exactly with one uniform: the
// pmf is accumulated outward from the mode (mode, mode+1, mode-1, …),
// each term obtained from its neighbor by the pmf ratio recurrence, and
// the first prefix sum exceeding U selects the sample. Reordering the
// pmf does not change the sampled law, and the expected number of terms
// visited is O(σ) = O(√(np(1-p))).
func (g *Xoshiro256) binomialZigzag(n int64, p float64) int64 {
	mode := int64(float64(n+1) * p)
	if mode > n {
		mode = n
	}
	lgN1, _ := math.Lgamma(float64(n + 1))
	lgK1, _ := math.Lgamma(float64(mode + 1))
	lgNK1, _ := math.Lgamma(float64(n - mode + 1))
	pMode := math.Exp(lgN1 - lgK1 - lgNK1 +
		float64(mode)*math.Log(p) + float64(n-mode)*math.Log1p(-p))
	u := g.Float64()
	acc := pMode
	if u < acc {
		return mode
	}
	ratioUp := p / (1 - p)
	down, up := mode, mode
	pDown, pUp := pMode, pMode
	for down > 0 || up < n {
		if up < n {
			pUp *= float64(n-up) / float64(up+1) * ratioUp
			up++
			acc += pUp
			if u < acc {
				return up
			}
		}
		if down > 0 {
			pDown *= float64(down) / float64(n-down+1) / ratioUp
			down--
			acc += pDown
			if u < acc {
				return down
			}
		}
	}
	// The pmf sums to 1 up to rounding; an astronomically unlucky u in
	// the lost tail mass lands on the mode deterministically.
	return mode
}

// UnitUniform fills dst with independent uniform [0, 1) coordinates,
// one Float64 per slot in order — the coordinate sampler of the spatial
// (random geometric) generators, where dst is one point's coordinate
// vector. Consuming exactly len(dst) draws per call keeps a point
// stream's layout a pure function of (generator state, dimension). The
// body is the batched Fill loop (state in registers), draw-for-draw
// identical to len(dst) Float64 calls.
func (g *Xoshiro256) UnitUniform(dst []float64) {
	s0, s1, s2, s3 := g.s[0], g.s[1], g.s[2], g.s[3]
	for i := range dst {
		r := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		dst[i] = float64(r>>11) / (1 << 53)
	}
	g.s[0], g.s[1], g.s[2], g.s[3] = s0, s1, s2, s3
}

// UnitUniform2 fills x and y with n = len(x) uniform [0, 1) points in
// structure-of-arrays layout, drawing in per-point order x[i], y[i] —
// draw-for-draw identical to n two-slot UnitUniform calls on an AoS
// buffer, so a generator switching between the layouts cannot move a
// bit. len(y) must be at least len(x). State stays in registers for the
// whole fill.
func (g *Xoshiro256) UnitUniform2(x, y []float64) {
	y = y[:len(x)]
	s0, s1, s2, s3 := g.s[0], g.s[1], g.s[2], g.s[3]
	for i := range x {
		r := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		x[i] = float64(r>>11) / (1 << 53)

		r = bits.RotateLeft64(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		y[i] = float64(r>>11) / (1 << 53)
	}
	g.s[0], g.s[1], g.s[2], g.s[3] = s0, s1, s2, s3
}

// UnitUniform3 is UnitUniform2 for three coordinate arrays: per-point
// draw order x[i], y[i], z[i], identical to three-slot UnitUniform
// calls per point. len(y) and len(z) must be at least len(x).
func (g *Xoshiro256) UnitUniform3(x, y, z []float64) {
	y = y[:len(x)]
	z = z[:len(x)]
	s0, s1, s2, s3 := g.s[0], g.s[1], g.s[2], g.s[3]
	for i := range x {
		r := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		x[i] = float64(r>>11) / (1 << 53)

		r = bits.RotateLeft64(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		y[i] = float64(r>>11) / (1 << 53)

		r = bits.RotateLeft64(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		z[i] = float64(r>>11) / (1 << 53)
	}
	g.s[0], g.s[1], g.s[2], g.s[3] = s0, s1, s2, s3
}

// HyperbolicRadius returns one sample of the radial law of random
// hyperbolic graphs truncated to a band [rLo, rHi): density ∝ sinh(α·r),
// sampled by CDF inversion — with U uniform in [0, 1),
//
//	r = acosh(cosh(α·rLo) + U·(cosh(α·rHi) − cosh(α·rLo))) / α.
//
// The caller hoists the band constants: coshLo = cosh(α·rLo), span =
// cosh(α·rHi) − cosh(α·rLo), invAlpha = 1/α. Consumes exactly one draw,
// so a point stream's layout stays a pure function of the generator
// state.
func (g *Xoshiro256) HyperbolicRadius(invAlpha, coshLo, span float64) float64 {
	return math.Acosh(coshLo+g.Float64()*span) * invAlpha
}

// NewStream2 returns a generator for a two-level logical stream id, the
// nested analogue of NewStream: first the namespace id (e.g. a model- or
// purpose-specific salt), then the element id (e.g. a chunk index or a
// splitting-tree node). Distinct (namespace, id) pairs yield independent
// streams; the derivation is a pure function of its arguments, which is
// what lets any worker recompute any stream with no communication.
func NewStream2(seed, namespace, id uint64) *Xoshiro256 {
	var g Xoshiro256
	g.ReseedStream2(seed, namespace, id)
	return &g
}

// ReseedStream2 re-initializes g in place to the exact state
// NewStream2(seed, namespace, id) would return — the allocation-free
// form for retracing loops that open a fresh per-element stream on
// every step. Bit-identical state derivation, so callers on byte-pinned
// streams can adopt it without moving a draw.
func (g *Xoshiro256) ReseedStream2(seed, namespace, id uint64) {
	g.Reseed(stream2Seed(seed, namespace, id))
}

// stream2Seed is the Reseed argument of the two-level stream id.
func stream2Seed(seed, namespace, id uint64) uint64 {
	h := Mix64(seed ^ (namespace * 0x9e3779b97f4a7c15) + 0x2545f4914f6cdd1d)
	return Mix64(h ^ (id * 0x9e3779b97f4a7c15) + 0x2545f4914f6cdd1d)
}

// Stream2Int64n returns NewStream2(seed, namespace, id).Int64n(n), the
// one-draw form for hash chases that open a stream only to read one
// bounded index. Xoshiro's first output reads only state word s[1], the
// second SplitMix64 output of the stream's seed, so that one word is
// derived instead of all four. When Lemire's rejection test asks for a
// second draw (probability below n/2^64) the whole stream is rebuilt
// and Int64n runs on it, so every result is the reference's. It panics
// if n <= 0.
func Stream2Int64n(seed, namespace, id uint64, n int64) int64 {
	if n > 0 {
		const gamma = 0x9e3779b97f4a7c15 // SplitMix64's increment
		s1 := Mix64(stream2Seed(seed, namespace, id) + gamma + gamma)
		un := uint64(n)
		hi, lo := bits.Mul64(bits.RotateLeft64(s1*5, 7)*9, un)
		// Int64n keeps its first draw iff lo >= -un%un; lo >= un
		// decides that without the division.
		if lo >= un || lo >= -un%un {
			return int64(hi)
		}
	}
	var g Xoshiro256
	g.ReseedStream2(seed, namespace, id)
	return g.Int64n(n)
}
