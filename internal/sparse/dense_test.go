package sparse

// Dense is a tiny row-major dense integer matrix used exclusively as a
// brute-force reference implementation in tests: every sparse kernel is
// validated against the obvious O(n^3) dense computation on small inputs.
type Dense struct {
	R, C int
	V    []int64 // row-major, len R*C
}

// NewDense returns a zeroed r x c dense matrix.
func NewDense(r, c int) *Dense {
	return &Dense{R: r, C: c, V: make([]int64, r*c)}
}

// DenseFrom converts a sparse matrix to dense.
func DenseFrom(m *Matrix) *Dense {
	d := NewDense(m.Rows(), m.cols)
	m.Each(func(r, c int, v int64) bool {
		d.V[r*d.C+c] = v
		return true
	})
	return d
}

// At returns entry (r, c).
func (d *Dense) At(r, c int) int64 { return d.V[r*d.C+c] }

// Set assigns entry (r, c).
func (d *Dense) Set(r, c int, v int64) { d.V[r*d.C+c] = v }

// Sparse converts back to a sparse matrix.
func (d *Dense) Sparse() *Matrix {
	var ts []Triplet
	for r := 0; r < d.R; r++ {
		for c := 0; c < d.C; c++ {
			if v := d.At(r, c); v != 0 {
				ts = append(ts, Triplet{r, c, v})
			}
		}
	}
	return FromTriplets(d.R, d.C, ts)
}

// Mul returns the naive O(R*C*K) product d·e.
func (d *Dense) Mul(e *Dense) *Dense {
	if d.C != e.R {
		panic("sparse: dense Mul dimension mismatch")
	}
	out := NewDense(d.R, e.C)
	for r := 0; r < d.R; r++ {
		for k := 0; k < d.C; k++ {
			dv := d.At(r, k)
			if dv == 0 {
				continue
			}
			for c := 0; c < e.C; c++ {
				out.V[r*out.C+c] += dv * e.At(k, c)
			}
		}
	}
	return out
}

// Add returns d + e.
func (d *Dense) Add(e *Dense) *Dense {
	if d.R != e.R || d.C != e.C {
		panic("sparse: dense Add dimension mismatch")
	}
	out := NewDense(d.R, d.C)
	for i := range d.V {
		out.V[i] = d.V[i] + e.V[i]
	}
	return out
}

// Hadamard returns the elementwise product.
func (d *Dense) Hadamard(e *Dense) *Dense {
	if d.R != e.R || d.C != e.C {
		panic("sparse: dense Hadamard dimension mismatch")
	}
	out := NewDense(d.R, d.C)
	for i := range d.V {
		out.V[i] = d.V[i] * e.V[i]
	}
	return out
}

// T returns the transpose.
func (d *Dense) T() *Dense {
	out := NewDense(d.C, d.R)
	for r := 0; r < d.R; r++ {
		for c := 0; c < d.C; c++ {
			out.Set(c, r, d.At(r, c))
		}
	}
	return out
}

// Kron returns the dense Kronecker product d ⊗ e.
func (d *Dense) Kron(e *Dense) *Dense {
	out := NewDense(d.R*e.R, d.C*e.C)
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			a := d.At(i, j)
			if a == 0 {
				continue
			}
			for k := 0; k < e.R; k++ {
				for l := 0; l < e.C; l++ {
					out.Set(i*e.R+k, j*e.C+l, a*e.At(k, l))
				}
			}
		}
	}
	return out
}

// Diag returns the diagonal vector of a square dense matrix.
func (d *Dense) Diag() []int64 {
	if d.R != d.C {
		panic("sparse: dense Diag of non-square matrix")
	}
	out := make([]int64, d.R)
	for i := range out {
		out[i] = d.At(i, i)
	}
	return out
}

// Equal reports elementwise equality.
func (d *Dense) Equal(e *Dense) bool {
	if d.R != e.R || d.C != e.C {
		return false
	}
	for i := range d.V {
		if d.V[i] != e.V[i] {
			return false
		}
	}
	return true
}
