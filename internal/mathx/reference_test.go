package mathx

import (
	"fmt"
	"math"
)

// csrMatrix is the tests' reference sparse matrix: rows assembled by Add
// (diagonal kept apart, off-diagonals in insertion order) and multiplied
// by MulVec in that order. MeshOperator must match its products bit for
// bit, and refCG solves on it are the oracle MG-PCG is checked against.
type csrMatrix struct {
	n    int
	cols [][]int32
	vals [][]float64
	diag []float64
}

func newCSR(n int) *csrMatrix {
	return &csrMatrix{
		n:    n,
		cols: make([][]int32, n),
		vals: make([][]float64, n),
		diag: make([]float64, n),
	}
}

// Add accumulates v into entry (r, c).
func (s *csrMatrix) Add(r, c int, v float64) {
	if r == c {
		s.diag[r] += v
		return
	}
	for i, cc := range s.cols[r] {
		if int(cc) == c {
			s.vals[r][i] += v
			return
		}
	}
	s.cols[r] = append(s.cols[r], int32(c))
	s.vals[r] = append(s.vals[r], v)
}

// MulVec computes y = A·x.
func (s *csrMatrix) MulVec(x, y []float64) {
	for r := 0; r < s.n; r++ {
		sum := s.diag[r] * x[r]
		cols, vals := s.cols[r], s.vals[r]
		for i := range cols {
			sum += vals[i] * x[cols[i]]
		}
		y[r] = sum
	}
}

// dense returns the matrix as rows for SolveDense.
func (s *csrMatrix) dense() [][]float64 {
	d := make([][]float64, s.n)
	for r := range d {
		d[r] = make([]float64, s.n)
		d[r][r] = s.diag[r]
		for i, c := range s.cols[r] {
			d[r][c] = s.vals[r][i]
		}
	}
	return d
}

// residualNorm returns ‖b − A·x‖₂.
func (s *csrMatrix) residualNorm(b, x []float64) float64 {
	ax := make([]float64, s.n)
	s.MulVec(x, ax)
	sum := 0.0
	for i := range b {
		d := b[i] - ax[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// refCG solves A·x = b by plain conjugate gradients from x = 0 until
// ‖r‖₂ ≤ tol·‖b‖₂, returning the solution and the iterations used.
func refCG(a *csrMatrix, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := a.n
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	rr := dot(r, r)
	bNorm := math.Sqrt(rr)
	if bNorm == 0 {
		return x, 0, nil
	}
	for iter := 1; iter <= maxIter; iter++ {
		a.MulVec(p, ap)
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		if math.Sqrt(rrNew) <= tol*bNorm {
			return x, iter, nil
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return x, maxIter, fmt.Errorf("reference CG: %w after %d iterations", ErrNoConverge, maxIter)
}

// stationaryMG iterates x += M⁻¹(b − A·x) with one mg V-cycle as M⁻¹ —
// multigrid on its own, no Krylov wrapper — until ‖b − A·x‖₂ ≤ tol·‖b‖₂.
// A diverging smoother shows up here long before it corrupts MG-PCG,
// which can limp through a weak preconditioner.
func stationaryMG(a *csrMatrix, mg *MeshMG, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := a.n
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	bNorm := math.Sqrt(dot(b, b))
	if bNorm == 0 {
		return x, 0, nil
	}
	rNorm := bNorm
	for iter := 1; iter <= maxIter; iter++ {
		mg.Apply(r, z)
		for i := range x {
			x[i] += z[i]
		}
		a.MulVec(x, z)
		rr := 0.0
		for i := range r {
			r[i] = b[i] - z[i]
			rr += r[i] * r[i]
		}
		rNorm = math.Sqrt(rr)
		if rNorm <= tol*bNorm {
			return x, iter, nil
		}
	}
	return x, maxIter, fmt.Errorf("stationary MG: %w after %d iterations (relative residual %.3g)",
		ErrNoConverge, maxIter, rNorm/bNorm)
}
