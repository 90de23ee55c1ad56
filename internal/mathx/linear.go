package mathx

import (
	"fmt"
	"math"
)

func log(x float64) float64 { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }

// ErrNotSPD reports a system that is not symmetric positive definite:
// SolveMGW returns it when the Krylov iteration meets non-positive
// curvature (pᵀ·A·p ≤ 0) or a non-positive preconditioned residual product
// (rᵀ·z ≤ 0) — round-off, or a NaN in the right-hand side, fails the same
// guards — and NewMeshHierarchy when the coarsest Cholesky factorization
// meets a non-positive pivot. The guards replace a silent divide-by-zero
// that propagated NaN/Inf into the solution.
var ErrNotSPD = fmt.Errorf("mathx: matrix is not positive definite")

// SolveDense solves the n×n linear system A·x = b by Gaussian elimination
// with partial pivoting. A is row-major and is not modified.
func SolveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("mathx: bad system dimensions (%d rows, %d rhs)", n, len(b))
	}
	// Working copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("mathx: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				piv, best = r, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("mathx: singular matrix at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
