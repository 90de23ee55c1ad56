package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// buildMesh assembles the pinned-center n×n 5-point mesh system (reflective
// boundaries, uniform edge conductance g) as a CSR matrix, with a
// deterministic randomized RHS, and the matching MeshMG hierarchy.
func buildMesh(t testing.TB, n int, g float64, seed int64) (*SparseMatrix, *MeshMG, []float64) {
	t.Helper()
	center := (n/2)*n + n/2
	m, b := assembleMesh(n, center, g, seed)
	h, err := NewMeshHierarchy(n, center)
	if err != nil {
		t.Fatalf("NewMeshHierarchy(%d): %v", n, err)
	}
	mg := NewMeshMG(h)
	if err := mg.SetConductance(g); err != nil {
		t.Fatal(err)
	}
	return m, mg, b
}

// assembleMesh is the reference assembly of the n×n mesh pinned at pin:
// per node, neighbours in up, down, left, right order, out-of-range ones
// skipped, −g per in-range unpinned neighbour and the diagonal accumulated
// by repeated += g. It is the oracle MeshOperator must match bit for bit.
func assembleMesh(n, pin int, g float64, seed int64) (*SparseMatrix, []float64) {
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
	m := NewSparseMatrix(cnt)
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
	m.Freeze()
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

// TestMGAgreesWithCGAndDense cross-checks the three solver families on
// randomized SPD mesh systems: MG-PCG and standalone MG must agree with CG
// to 1e-9 at every size, and with dense Gaussian elimination where the
// dense solve is affordable.
func TestMGAgreesWithCGAndDense(t *testing.T) {
	for _, n := range []int{15, 31, 63, 127} {
		if n == 127 && testing.Short() {
			continue
		}
		m, mg, b := buildMesh(t, n, 0.7+float64(n)/100, int64(n))
		xcg, _, err := m.SolveCG(b, 1e-12, 40*m.N)
		if err != nil {
			t.Fatalf("n=%d: CG: %v", n, err)
		}
		var ws Workspace
		xmg, _, err := SolveMGW(m, &ws, mg, b, 1e-12, 200)
		if err != nil {
			t.Fatalf("n=%d: MG-PCG: %v", n, err)
		}
		if d := maxRelDiff(xmg, xcg); d > 1e-9 {
			t.Errorf("n=%d: MG-PCG vs CG max relative diff %.3g > 1e-9", n, d)
		}
		// Stationary iteration bottoms out near 1e-12 relative residual in
		// double precision; 1e-10 keeps it clear of that floor while still
		// an order below the 1e-9 agreement threshold.
		xsa, _, err := m.SolveMG(mg, b, 1e-10, 200)
		if err != nil {
			t.Fatalf("n=%d: standalone MG: %v", n, err)
		}
		if d := maxRelDiff(xsa, xcg); d > 1e-9 {
			t.Errorf("n=%d: standalone MG vs CG max relative diff %.3g > 1e-9", n, d)
		}
		if n <= 31 {
			dense := make([][]float64, m.N)
			for r := 0; r < m.N; r++ {
				dense[r] = make([]float64, m.N)
				dense[r][r] = m.diag[r]
				cols, vals := m.row(r)
				for i, c := range cols {
					dense[r][c] = vals[i]
				}
			}
			xd, err := SolveDense(dense, b)
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
		m, mg, b := buildMesh(t, n, 1.0, 42)
		_, itMG, err := SolveMGW(m, &ws, mg, b, 1e-10, 200)
		if err != nil {
			t.Fatalf("n=%d: MG-PCG: %v", n, err)
		}
		if itMG > 25 {
			t.Errorf("n=%d: MG-PCG took %d iterations, want ≤ 25", n, itMG)
		}
		if n <= 127 {
			_, itCG, err := m.SolveCGW(&ws, b, 1e-10, 40*m.N)
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

// TestAddAfterFreezePanics pins the loud-failure contract: Add on a frozen
// matrix must panic instead of silently corrupting the CSR arrays.
func TestAddAfterFreezePanics(t *testing.T) {
	m := NewSparseMatrix(4)
	m.Add(0, 1, -1)
	m.Add(1, 0, -1)
	m.Add(0, 0, 2)
	m.Add(1, 1, 2)
	m.Freeze()
	m.Freeze() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Freeze did not panic")
		}
	}()
	m.Add(2, 3, -1)
}

// TestFrozenMulVecBitIdentical: Freeze must not change MulVec output by a
// single bit (same per-row summation order), which is what lets the frozen
// path substitute into the golden-pinned report.
func TestFrozenMulVecBitIdentical(t *testing.T) {
	n := 31
	m, _, b := buildMesh(t, n, 1.3, 7)
	// Rebuild an unfrozen copy with identical assembly.
	m2, _, _ := buildMesh(t, n, 1.3, 7)
	_ = m2
	unfrozen := NewSparseMatrix(m.N)
	for r := 0; r < m.N; r++ {
		cols, vals := m.row(r)
		for i, c := range cols {
			unfrozen.Add(r, int(c), vals[i])
		}
		unfrozen.Add(r, r, m.diag[r])
	}
	y1 := make([]float64, m.N)
	y2 := make([]float64, m.N)
	m.MulVec(b, y1)
	unfrozen.MulVec(b, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("frozen MulVec differs at %d: %v vs %v", i, y1[i], y2[i])
		}
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
				want := make([]float64, m.N)
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
