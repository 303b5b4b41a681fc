package rng

import "math"

// GeometricLog returns the number of failures before the first success
// in a Bernoulli(p) sequence — a geometric sample on {0, 1, 2, …}, the
// skip length of the O(expected-successes) sparse-sampling loop — by
// inversion, floor(log1p(-U) / log1mP), capped at maxGeometric. The
// denominator log1mP = math.Log1p(-p) is the caller's, so hot loops
// whose p is fixed (the G(n,p) skip sweep) or repeats across candidates
// (the Chung–Lu flat tail) compute it once. log1mP must be
// math.Log1p(-p) for some p in (0, 1], i.e. negative (-Inf at p = 1,
// which always returns 0).
//
// It consumes one draw and returns exactly what the reference
// expression geometricLogRef returns on that draw: a fast evaluation
// (geometricLogFast) answers whenever it can prove the reference's
// floor, and the reference itself answers the rest.
func (g *Xoshiro256) GeometricLog(log1mP float64) int64 {
	k := g.Uint64() >> 11
	if j, ok := geometricLogFast(k, log1mP); ok {
		return j
	}
	return geometricLogRef(k, log1mP)
}

// geometricLogRef is the reference inversion on the 53-bit draw k:
// u = k/2^53 is exactly Float64's value for that draw.
func geometricLogRef(k uint64, log1mP float64) int64 {
	y := math.Log1p(-float64(k)/(1<<53)) / log1mP
	if y >= float64(maxGeometric) {
		return maxGeometric
	}
	return int64(y)
}

// logOff is the bit pattern of 0.6875, the low end of the reduced
// argument's range [0.6875, 1.375). The 256 table buckets split that
// range at every 2^-8 step of the significand (width 2^-9 below 1,
// 2^-8 above), and a bucket's centre c is its start with significand
// bit 43 set.
const logOff = 0x3fe6000000000000

// logTable holds, per bucket, invc = 1/c and logc = ln c = -ln(1/c),
// each rounded (math.Log errs by < 1 ulp).
var logTable = func() (t [256]struct{ invc, logc float64 }) {
	for i := range t {
		c := math.Float64frombits(logOff + uint64(i)<<44 | 1<<43)
		t[i].invc, t[i].logc = 1/c, math.Log(c)
	}
	return t
}()

// geometricLogFast evaluates the inversion on the 53-bit draw k and
// reports ok when its floor provably equals geometricLogRef(k, log1mP).
//
// With m = 2^53 - k, 1-u = m·2^-53 exactly, so ln(1-u) = ln m - 53·ln 2.
// m is split as z·2^e with z in [0.6875, 1.375); z - c is exact, so
// r = (z - c)·invc is (z - c)/c within 2.01ε, |r| < 2^-9, and
//
//	L = hi + P,  hi = (e-53)·ln 2 + logc,  P = r + r²·(-1/2 + r/3 + r²·(-1/4 + r/5 - r²/6)),
//
// P being the degree-6 Taylor polynomial of log1p(r). Then
// y = L·(1/log1mP).
//
// Error band, with ε = 2^-53 the unit roundoff and λ = ln(1-u):
//   - P: truncation ≤ |r|⁷/(7(1-|r|)) < ε|r|/8; evaluation ≤ ε|P| (the
//     one add at P's magnitude) + 3ε·2^-9·|r| (the r² term); r's error
//     moves log1p by ≤ 2.02ε|r|. With |r| ≤ 1.003|P|,
//     |P - ln(z/c)| ≤ 4ε|P|.
//   - hi: ln 2's rounding and the product's give 2ε|e-53|·ln 2, logc's
//     2ε|logc|, the sum ε|hi|. Since |e-53|·ln 2 + |logc| ≤ 3|hi| for
//     every reachable (e, c), the total is ≤ 7ε|hi|.
//   - L: the final add gives ε|L|, so |L - λ| ≤ 7ε|hi| + 4ε|P| + ε|L|.
//   - y: the reciprocal and the product give 2.01ε|y|.
//   - the reference: math.Log1p errs by < 1 ulp ≤ 2ε|λ| and its division
//     by ε, so it is within 3.01ε|λ|/|log1mP| of λ/log1mP.
//
// Summed, |y - y_ref| ≤ 8ε·A/|log1mP| = 2^-50·A/|log1mP| with
// A = |hi| + |P| + |L| ≤ 2.0001·|hi| + 1.003·2^-8, as
// |L| ≤ (1+ε)(|hi| + |P|) and |P| < 1.002·2^-9. The band used,
// 2^-48·(|hi| + 2^-8)·|1/log1mP|, is at least 1.99 times that, which
// covers its own three roundings. When [y - band, y + band] lies
// inside one (j, j+1) with j+1 ≤ 2^53, or inside (-1, 1) where
// truncation gives 0 too, y_ref lies there as well and
// j = int64(y_ref); when y - band exceeds 2^62, y_ref is capped.
// Rounding is monotone and the bounds compared against are exact
// floats, so the float comparisons below decide these real-number
// inclusions. Anything else — a band holding an integer, y past 2^53,
// NaN or infinite intermediates — reports !ok.
func geometricLogFast(k uint64, log1mP float64) (int64, bool) {
	b := math.Float64bits(float64(int64(1<<53 - k))) // exact: 1 ≤ m ≤ 2^53
	t := b - logOff
	zb := b - t&(0xfff<<52)
	z := math.Float64frombits(zb)
	c := math.Float64frombits(zb&^(1<<44-1) | 1<<43)
	e := &logTable[t>>44&255]
	r := (z - c) * e.invc
	r2 := r * r
	p := r + r2*(-0.5+r*(1.0/3)+r2*(-0.25+r*0.2+r2*(-1.0/6)))
	hi := float64(int64(t)>>52-53)*math.Ln2 + e.logc
	l := hi + p
	inv := 1 / log1mP
	y := l * inv
	band := 0x1p-48 * (math.Abs(hi) + 0x1p-8) * math.Abs(inv)
	lo, up := y-band, y+band
	if up < 1<<53 {
		j := math.Trunc(lo)
		if up < j+1 && (j < lo || j == 0) {
			return int64(j), true
		}
	} else if lo > float64(maxGeometric) {
		return maxGeometric, true
	}
	return 0, false
}
