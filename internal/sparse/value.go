package sparse

import (
	"errors"
	"math/bits"
)

// ErrOverflow is returned (or panicked, in contexts where a statistic is
// guaranteed representable) when an exact integer computation would exceed
// int64. Triangle totals of Kronecker product graphs grow multiplicatively,
// so the library checks rather than silently wrapping.
var ErrOverflow = errors.New("sparse: int64 overflow in exact computation")

// CheckedMul returns a*b, or ErrOverflow if the product does not fit int64.
// Inputs are expected to be nonnegative counts.
func CheckedMul(a, b int64) (int64, error) {
	if a < 0 || b < 0 {
		return 0, errors.New("sparse: negative count")
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(1<<63-1) {
		return 0, ErrOverflow
	}
	return int64(lo), nil
}

// MustMul is CheckedMul that panics on overflow; for call sites where the
// result is known to be representable (validated factor sizes).
func MustMul(a, b int64) int64 {
	v, err := CheckedMul(a, b)
	if err != nil {
		panic(err)
	}
	return v
}

// SumVec returns the sum of the entries of v (the paper's 1^t v).
func SumVec(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// EqualVec reports elementwise equality.
func EqualVec(u, v []int64) bool {
	if len(u) != len(v) {
		return false
	}
	for i := range u {
		if u[i] != v[i] {
			return false
		}
	}
	return true
}

// KronVec returns the Kronecker product of vectors u and v:
// (u ⊗ v)[i*len(v)+k] = u[i]*v[k].
func KronVec(u, v []int64) []int64 {
	out := make([]int64, len(u)*len(v))
	idx := 0
	for _, a := range u {
		for _, b := range v {
			out[idx] = a * b
			idx++
		}
	}
	return out
}
