// Package linalg provides the small dense linear-algebra and optimization
// kernel the Octant framework needs: least-squares solves for the
// queuing-delay "heights" system (§2.2 of the paper) and Nelder–Mead simplex
// minimization for the target coordinate fit. It is deliberately minimal —
// dense row-major matrices, Householder QR, and a simplex optimizer — and
// has no dependencies beyond the standard library.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all must be equal length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: dimension mismatch in MulVec")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("linalg: singular or rank-deficient system")

// SolveLeastSquares solves min ‖Ax − b‖₂ via Householder QR with column
// norms as a rank check. A must have Rows ≥ Cols.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: rhs length %d != rows %d", len(b), a.Rows)
	}
	r := a.Clone()
	y := append([]float64(nil), b...)
	m, n := r.Rows, r.Cols
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += r.At(i, k) * r.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-13 {
			return nil, ErrSingular
		}
		alpha := -norm
		if r.At(k, k) < 0 {
			alpha = norm
		}
		v := make([]float64, m-k)
		v[0] = r.At(k, k) - alpha
		for i := k + 1; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		var vnorm2 float64
		for _, vi := range v {
			vnorm2 += vi * vi
		}
		if vnorm2 < 1e-26 {
			continue
		}
		// Apply H = I − 2vvᵀ/‖v‖² to R and y.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-f*v[i-k])
			}
		}
		var dot float64
		for i := k; i < m; i++ {
			dot += v[i-k] * y[i]
		}
		f := 2 * dot / vnorm2
		for i := k; i < m; i++ {
			y[i] -= f * v[i-k]
		}
	}
	// Back substitution on the upper-triangular part.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) < 1e-13 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Residual returns ‖Ax − b‖₂.
func Residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	var s float64
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
