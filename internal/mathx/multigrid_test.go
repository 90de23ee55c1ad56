package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// testMesh is one pinned-center n×n 5-point mesh system (reflective
// boundaries, uniform edge conductance g) in both forms — the reference
// CSR assembly and the production stencil — with a deterministic
// randomized RHS and the matching MeshMG.
type testMesh struct {
	csr *csrMatrix
	op  *MeshOperator
	mg  *MeshMG
	b   []float64
}

func buildMesh(t testing.TB, n int, g float64, seed int64) testMesh {
	t.Helper()
	center := (n/2)*n + n/2
	m, b := assembleMesh(n, center, g, seed)
	op, err := NewMeshOperator(n, center)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.SetConductance(g); err != nil {
		t.Fatal(err)
	}
	h, err := NewMeshHierarchy(n, center)
	if err != nil {
		t.Fatalf("NewMeshHierarchy(%d): %v", n, err)
	}
	mg := NewMeshMG(h)
	if err := mg.SetConductance(g); err != nil {
		t.Fatal(err)
	}
	return testMesh{csr: m, op: op, mg: mg, b: b}
}

// assembleMesh is the reference assembly of the n×n mesh pinned at pin:
// per node, neighbours in up, down, left, right order, out-of-range ones
// skipped, −g per in-range unpinned neighbour and the diagonal accumulated
// by repeated += g. It is the oracle MeshOperator must match bit for bit.
func assembleMesh(n, pin int, g float64, seed int64) (*csrMatrix, []float64) {
	idx := make([]int, n*n)
	cnt := 0
	for i := range idx {
		if i == pin {
			idx[i] = -1
			continue
		}
		idx[i] = cnt
		cnt++
	}
	m := newCSR(cnt)
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, cnt)
	at := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			u := at(r, c)
			if idx[u] < 0 {
				continue
			}
			row := idx[u]
			b[row] = (0.5 + rng.Float64()) * 1e-4
			deg := 0.0
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= n || nb[1] < 0 || nb[1] >= n {
					continue
				}
				deg += g
				if v := idx[at(nb[0], nb[1])]; v >= 0 {
					m.Add(row, v, -g)
				}
			}
			m.Add(row, row, deg)
		}
	}
	return m, b
}

func maxRelDiff(a, b []float64) float64 {
	scale := 0.0
	for _, v := range b {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst / scale
}

// TestMGAgreesWithCGAndDense cross-checks the solver families on
// randomized SPD mesh systems: MG-PCG on the stencil and the stationary
// V-cycle iteration must agree with the reference CG to 1e-9 at every
// size, and with dense Gaussian elimination where the dense solve is
// affordable.
func TestMGAgreesWithCGAndDense(t *testing.T) {
	for _, n := range []int{15, 31, 63, 127} {
		if n == 127 && testing.Short() {
			continue
		}
		m := buildMesh(t, n, 0.7+float64(n)/100, int64(n))
		xcg, _, err := refCG(m.csr, m.b, 1e-12, 40*m.csr.n)
		if err != nil {
			t.Fatalf("n=%d: CG: %v", n, err)
		}
		var ws Workspace
		xmg, _, err := SolveMGW(m.op, &ws, m.mg, m.b, 1e-12, 200)
		if err != nil {
			t.Fatalf("n=%d: MG-PCG: %v", n, err)
		}
		if d := maxRelDiff(xmg, xcg); d > 1e-9 {
			t.Errorf("n=%d: MG-PCG vs CG max relative diff %.3g > 1e-9", n, d)
		}
		// Stationary iteration bottoms out near 1e-12 relative residual in
		// double precision; 1e-10 keeps it clear of that floor while still
		// an order below the 1e-9 agreement threshold.
		xsa, _, err := stationaryMG(m.csr, m.mg, m.b, 1e-10, 200)
		if err != nil {
			t.Fatalf("n=%d: standalone MG: %v", n, err)
		}
		if d := maxRelDiff(xsa, xcg); d > 1e-9 {
			t.Errorf("n=%d: standalone MG vs CG max relative diff %.3g > 1e-9", n, d)
		}
		if n <= 31 {
			xd, err := SolveDense(m.csr.dense(), m.b)
			if err != nil {
				t.Fatalf("n=%d: dense: %v", n, err)
			}
			if d := maxRelDiff(xmg, xd); d > 1e-9 {
				t.Errorf("n=%d: MG-PCG vs dense max relative diff %.3g > 1e-9", n, d)
			}
		}
	}
}

// TestMGIterationCountsStayFlat is the point of the multigrid layer: the
// MG-preconditioned iteration count must stay below a small constant as the
// mesh doubles, while plain CG's grows roughly linearly with n.
func TestMGIterationCountsStayFlat(t *testing.T) {
	sizes := []int{31, 63, 127}
	if !testing.Short() {
		sizes = append(sizes, 255)
	}
	var ws Workspace
	prevCG := 0
	for _, n := range sizes {
		m := buildMesh(t, n, 1.0, 42)
		_, itMG, err := SolveMGW(m.op, &ws, m.mg, m.b, 1e-10, 200)
		if err != nil {
			t.Fatalf("n=%d: MG-PCG: %v", n, err)
		}
		if itMG > 25 {
			t.Errorf("n=%d: MG-PCG took %d iterations, want ≤ 25", n, itMG)
		}
		if n <= 127 {
			_, itCG, err := refCG(m.csr, m.b, 1e-10, 40*m.csr.n)
			if err != nil {
				t.Fatalf("n=%d: CG: %v", n, err)
			}
			if itCG <= prevCG {
				t.Errorf("n=%d: CG iterations %d did not grow past %d — the MG comparison is vacuous", n, itCG, prevCG)
			}
			prevCG = itCG
			t.Logf("n=%3d: MG-PCG %d iters, CG %d iters", n, itMG, itCG)
		} else {
			t.Logf("n=%3d: MG-PCG %d iters", n, itMG)
		}
	}
}

// TestSolveMGWStopsOnTrueResidual: a solve SolveMGW reports as converged
// meets the tolerance in its true residual (the recursive residual it stops
// on must not drift from the true one), and an exhausted iteration budget
// returns ErrNoConverge with the last iterate.
func TestSolveMGWStopsOnTrueResidual(t *testing.T) {
	m := buildMesh(t, 31, 1.3, 9)
	var ws Workspace
	const tol = 1e-10
	x, iters, err := SolveMGW(m.op, &ws, m.mg, m.b, tol, 200)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Fatalf("iteration count %d", iters)
	}
	if rel := m.csr.residualNorm(m.b, x) / math.Sqrt(dot(m.b, m.b)); rel > tol {
		t.Fatalf("declared converged at true relative residual %g > tol %g", rel, tol)
	}
	x, iters, err = SolveMGW(m.op, &ws, m.mg, m.b, 1e-15, 1)
	if !errors.Is(err, ErrNoConverge) {
		t.Fatalf("one iteration at tol 1e-15: want ErrNoConverge, got %v", err)
	}
	if iters != 1 || x == nil {
		t.Fatalf("exhaustion must report maxIter and the last iterate (%d, %v)", iters, x == nil)
	}
}

// TestSolveMGWParameterValidation: a right-hand side whose length does not
// match the operator is rejected before iterating, and the workspace stays
// usable for a correct solve afterwards.
func TestSolveMGWParameterValidation(t *testing.T) {
	m := buildMesh(t, 15, 1, 10)
	var ws Workspace
	for _, b := range [][]float64{m.b[:len(m.b)-1], append(append([]float64(nil), m.b...), 1), nil} {
		if _, _, err := SolveMGW(m.op, &ws, m.mg, b, 1e-10, 200); err == nil {
			t.Fatalf("rhs of length %d accepted by a %d-node operator", len(b), len(m.b))
		}
	}
	if _, _, err := SolveMGW(m.op, &ws, m.mg, m.b, 1e-10, 200); err != nil {
		t.Fatalf("solve after rejected calls: %v", err)
	}
}

// TestNonSPDReturnsError: a NaN or Inf in the right-hand side poisons every
// product it reaches; the positivity guards must turn that into ErrNotSPD
// with no solution rather than divide through and return a NaN drop
// vector.
func TestNonSPDReturnsError(t *testing.T) {
	m := buildMesh(t, 15, 1, 3)
	var ws Workspace
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		b := append([]float64(nil), m.b...)
		b[len(b)/3] = v
		x, _, err := SolveMGW(m.op, &ws, m.mg, b, 1e-10, 200)
		if !errors.Is(err, ErrNotSPD) {
			t.Fatalf("rhs entry %g: want ErrNotSPD, got %v", v, err)
		}
		if x != nil {
			t.Fatalf("rhs entry %g: a solution came back with the error", v)
		}
	}
}

// TestCGZeroRHS: a zero right-hand side solves instantly to zero, even
// when the workspace holds a previous solution.
func TestCGZeroRHS(t *testing.T) {
	m := buildMesh(t, 15, 1, 4)
	var ws Workspace
	if _, _, err := SolveMGW(m.op, &ws, m.mg, m.b, 1e-10, 200); err != nil {
		t.Fatal(err)
	}
	x, iters, err := SolveMGW(m.op, &ws, m.mg, make([]float64, len(m.b)), 1e-12, 100)
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs should solve instantly: %v (%d iters)", err, iters)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("zero rhs must give zero solution")
		}
	}
}

// TestWorkspaceSolverReuse: repeated solves on one workspace stay correct
// (no state leaks between solves, including across system sizes) and
// allocate nothing once warm.
func TestWorkspaceSolverReuse(t *testing.T) {
	var ws Workspace
	big, small := buildMesh(t, 31, 1.1, 5), buildMesh(t, 9, 0.4, 6)
	for round := 0; round < 3; round++ {
		for _, m := range []testMesh{big, small} {
			x, _, err := SolveMGW(m.op, &ws, m.mg, m.b, 1e-12, 200)
			if err != nil {
				t.Fatal(err)
			}
			if rel := m.csr.residualNorm(m.b, x) / math.Sqrt(dot(m.b, m.b)); rel > 1e-10 {
				t.Fatalf("round %d n²−1=%d: residual %g", round, m.csr.n, rel)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := SolveMGW(big.op, &ws, big.mg, big.b, 1e-12, 200); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm workspace solve allocates %.0f objects, want 0", allocs)
	}
}

// TestNewMeshOperatorValidates rejects grids too small to stencil, pins
// outside the grid and non-positive conductances.
func TestNewMeshOperatorValidates(t *testing.T) {
	for _, tc := range []struct{ n, pin int }{{2, 0}, {5, -1}, {5, 25}} {
		if _, err := NewMeshOperator(tc.n, tc.pin); err == nil {
			t.Errorf("NewMeshOperator(%d, %d) accepted", tc.n, tc.pin)
		}
	}
	a, err := NewMeshOperator(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []float64{0, -1, math.NaN()} {
		if err := a.SetConductance(g); err == nil {
			t.Errorf("SetConductance(%g) accepted", g)
		}
	}
	if a.Dim() != 24 {
		t.Errorf("Dim = %d, want 24", a.Dim())
	}
}

// TestMeshOperatorMatchesCSR is the stencil's oracle: for every grid size
// the power grid solves, several conductances, and pins at the center, a
// corner and an edge, MeshOperator.MulVec must equal the assembled CSR
// product bit for bit — which is what keeps Mesh.Solve's drops, and so the
// golden reports, unchanged.
func TestMeshOperatorMatchesCSR(t *testing.T) {
	for _, n := range []int{5, 7, 41, 129, 255, 257} {
		pins := []int{(n/2)*n + n/2, 0, n*n - 1, n + n/2, (n-2)*n + 1}
		for pi, pin := range pins {
			for gi, g := range []float64{1, 0.3, 1 / 0.0717, 2.5e4} {
				m, x := assembleMesh(n, pin, g, int64(n*100+pi*10+gi))
				for i := range x {
					x[i] = x[i]*1e4 - 1 // mixed signs
				}
				a, err := NewMeshOperator(n, pin)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.SetConductance(g); err != nil {
					t.Fatal(err)
				}
				want := make([]float64, m.n)
				got := make([]float64, a.Dim())
				m.MulVec(x, want)
				a.MulVec(x, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d pin=%d g=%g: row %d stencil %v, CSR %v", n, pin, g, i, got[i], want[i])
					}
				}
			}
		}
	}
}
