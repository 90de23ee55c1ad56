package mathx

import "fmt"

// MeshOperator is the pinned n×n mesh system MeshMG preconditions, applied
// as a matrix-free stencil: every node couples to its up, down, left and
// right neighbours (reflective boundaries drop out-of-range ones) through
// the edge conductance g, and the node at flat index pin (row·n + col) is
// held at 0 V and eliminated, so vectors have n²−1 entries with the pin
// skipped. Its products equal those of the assembled CSR matrix of the
// same system bit for bit, because it performs the same floating-point
// operations: each row is diag·x[j] followed by −g·x[nb] in up, down,
// left, right order, and the diagonal is g added once per in-range
// neighbour, starting from 0. A pinned neighbour counts toward the
// diagonal but contributes no term.
type MeshOperator struct {
	n, pin int
	g      float64
	diag   [5]float64 // diag[k]: g added k times, the diagonal of a degree-k row
}

// NewMeshOperator returns the operator for an n×n mesh pinned at pin, at
// unit conductance; call SetConductance for the system's g.
func NewMeshOperator(n, pin int) (*MeshOperator, error) {
	if n < 3 {
		return nil, fmt.Errorf("mathx: mesh operator needs n ≥ 3, got %d", n)
	}
	if pin < 0 || pin >= n*n {
		return nil, fmt.Errorf("mathx: pinned node %d outside %d×%d grid", pin, n, n)
	}
	a := &MeshOperator{n: n, pin: pin}
	return a, a.SetConductance(1)
}

// SetConductance sets the uniform edge conductance g.
func (a *MeshOperator) SetConductance(g float64) error {
	if !(g > 0) {
		return fmt.Errorf("mathx: non-positive mesh conductance %g", g)
	}
	a.g = g
	for k := 1; k < len(a.diag); k++ {
		a.diag[k] = a.diag[k-1] + g
	}
	return nil
}

// Dim returns the unknown count n²−1.
func (a *MeshOperator) Dim() int { return a.n*a.n - 1 }

// MulVec computes y = A·x (both length n²−1). Grid rows whose stencil
// stays on one side of the pin map node (r, c) to unknown r·n+c (before
// the pin) or r·n+c−1 (after it) with neighbours at ±n and ±1, and run the
// branch-free kernel; the at most three rows touching the pin take the
// per-node path.
func (a *MeshOperator) MulVec(x, y []float64) {
	n, pr := a.n, a.pin/a.n
	lo, hi := max(pr-1, 0), min(pr+2, n)
	a.rows(x, y, 0, lo, 0)
	for r := lo; r < hi; r++ {
		a.pinRow(x, y, r)
	}
	a.rows(x, y, hi, n, 1)
}

// rows applies the stencil to grid rows [r0, r1), none of which has the pin
// in its stencil, with unknown index j = r·n + c − shift.
func (a *MeshOperator) rows(x, y []float64, r0, r1, shift int) {
	n, g, d2, d3, d4 := a.n, a.g, a.diag[2], a.diag[3], a.diag[4]
	for r := r0; r < r1; r++ {
		j0 := r*n - shift
		last := j0 + n - 1
		switch {
		case r == 0:
			j := j0
			y[j] = d2*x[j] - g*x[j+n] - g*x[j+1]
			for j = j0 + 1; j < last; j++ {
				y[j] = d3*x[j] - g*x[j+n] - g*x[j-1] - g*x[j+1]
			}
			y[j] = d2*x[j] - g*x[j+n] - g*x[j-1]
		case r == n-1:
			j := j0
			y[j] = d2*x[j] - g*x[j-n] - g*x[j+1]
			for j = j0 + 1; j < last; j++ {
				y[j] = d3*x[j] - g*x[j-n] - g*x[j-1] - g*x[j+1]
			}
			y[j] = d2*x[j] - g*x[j-n] - g*x[j-1]
		default:
			j := j0
			y[j] = d3*x[j] - g*x[j-n] - g*x[j+n] - g*x[j+1]
			for j = j0 + 1; j < last; j++ {
				y[j] = d4*x[j] - g*x[j-n] - g*x[j+n] - g*x[j-1] - g*x[j+1]
			}
			y[j] = d3*x[j] - g*x[j-n] - g*x[j+n] - g*x[j-1]
		}
	}
}

// pinRow applies the stencil to grid row r node by node, mapping each grid
// index through the elimination and skipping the pin and pinned terms.
func (a *MeshOperator) pinRow(x, y []float64, r int) {
	n, pin, g := a.n, a.pin, a.g
	unknown := func(i int) int {
		if i > pin {
			return i - 1
		}
		return i
	}
	var nbs [4]int
	for c := 0; c < n; c++ {
		i := r*n + c
		if i == pin {
			continue
		}
		k := 0
		if r > 0 {
			nbs[k] = i - n
			k++
		}
		if r < n-1 {
			nbs[k] = i + n
			k++
		}
		if c > 0 {
			nbs[k] = i - 1
			k++
		}
		if c < n-1 {
			nbs[k] = i + 1
			k++
		}
		j := unknown(i)
		sum := a.diag[k] * x[j]
		for _, nb := range nbs[:k] {
			if nb != pin {
				sum -= g * x[unknown(nb)]
			}
		}
		y[j] = sum
	}
}
