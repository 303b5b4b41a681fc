package sparse

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
