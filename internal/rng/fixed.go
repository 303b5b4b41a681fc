package rng

import (
	"math"
	"math/bits"
)

// This file is the fixed-point fast path of the generator: bulk draws
// and integer-threshold Bernoulli trials that replace the per-draw
// int→float conversion, division and float compare of Float64() < p
// with one integer compare — exactly equivalent by construction, so
// callers on byte-pinned streams can adopt them without changing a
// single emitted bit.

// FixedThreshold returns the unique integer T in [0, 2^53] with
//
//	k < T  ⟺  float64(k)/2^53 < p   for every k in [0, 2^53),
//
// the fixed-point form of the comparison Float64() < p: Float64 returns
// exactly float64(k)/2^53 for k = Uint64()>>11, so Below(FixedThreshold(p))
// decides every draw exactly like Float64() < p. The computation is
// exact because multiplying by 2^53 only shifts p's exponent (subnormal
// p lands in the normal range), so Ceil sees the true product p·2^53.
// p <= 0 and NaN map to 0 (never below); p >= 1 maps to 2^53 (always
// below, as Float64 is in [0, 1)).
func FixedThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below consumes one draw and reports whether it falls below the
// fixed-point threshold t: Below(FixedThreshold(p)) is draw-for-draw
// identical to Float64() < p.
func (g *Xoshiro256) Below(t uint64) bool {
	return g.Uint64()>>11 < t
}

// Fill fills dst with the next len(dst) values of the stream —
// draw-for-draw identical to len(dst) Uint64 calls — keeping the
// generator state in registers across the loop.
func (g *Xoshiro256) Fill(dst []uint64) {
	s0, s1, s2, s3 := g.s[0], g.s[1], g.s[2], g.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	g.s[0], g.s[1], g.s[2], g.s[3] = s0, s1, s2, s3
}

// CountBelow consumes n draws and counts those below the fixed-point
// threshold t (a FixedThreshold, so at most 2^53) — draw-for-draw
// identical to n Below calls (or a Fill plus a threshold sweep), but
// with the state in registers, no buffer to zero-initialize, and no
// branch on the outcome: the draws are coin flips a predictor cannot
// learn.
func (g *Xoshiro256) CountBelow(n int64, t uint64) int64 {
	s0, s1, s2, s3 := g.s[0], g.s[1], g.s[2], g.s[3]
	var k int64
	for i := int64(0); i < n; i++ {
		r := bits.RotateLeft64(s1*5, 7) * 9
		x := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= x
		s3 = bits.RotateLeft64(s3, 45)
		k += int64((r>>11 - t) >> 63) // the sign of the difference is r>>11 < t
	}
	g.s[0], g.s[1], g.s[2], g.s[3] = s0, s1, s2, s3
	return k
}

// GeometricLog returns the number of failures before the first success
// in a Bernoulli(p) sequence — a geometric sample on {0, 1, 2, …}, the
// skip length of the O(expected-successes) sparse-sampling loop — by
// inversion, floor(log1p(-U) / log1mP), capped at maxGeometric. The
// denominator log1mP = math.Log1p(-p) is the caller's, so hot loops
// whose p is fixed (the G(n,p) skip sweep) or repeats across candidates
// (the Chung–Lu flat tail) compute it once. log1mP must be
// math.Log1p(-p) for some p in (0, 1], i.e. negative (-Inf at p = 1,
// which always returns 0).
func (g *Xoshiro256) GeometricLog(log1mP float64) int64 {
	k := math.Log1p(-g.Float64()) / log1mP
	if k >= float64(maxGeometric) {
		return maxGeometric
	}
	return int64(k)
}

// smallFixedTrials is the trial count below which BinomialFixed counts
// individual threshold draws; above it the mode-centered sampler's
// log-gamma setup amortizes.
const smallFixedTrials = 64

// BinomialFixed samples Binomial(n, p) like Binomial but takes the
// precomputed fixed-point threshold t = FixedThreshold(p) and picks
// regimes tuned for recursive count splitting: small n counts n batched
// threshold draws (exact Bernoulli trials, no log calls — and exactly
// the per-trial probability t/2^53 the threshold encodes), larger n
// goes straight to the exact mode-centered sampler (skipping Binomial's
// geometric-counting regime, whose two log1p calls per success dominate
// splitting workloads), and n beyond the zig-zag's numeric range uses
// the clamped normal approximation. The draw pattern differs from
// Binomial, so it is for new streams, not byte-pinned ones.
func (g *Xoshiro256) BinomialFixed(n int64, p float64, t uint64) int64 {
	if n <= 0 || t == 0 {
		return 0
	}
	if t >= 1<<53 {
		return n
	}
	if n <= smallFixedTrials {
		return g.CountBelow(n, t)
	}
	if n > largeBinomialCutoff {
		return g.binomialNormal(n, p)
	}
	return g.binomialZigzag(n, p)
}
