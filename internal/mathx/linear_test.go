package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveDenseKnown(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Zero leading pivot requires a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := SolveDense(a, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 4 || x[1] != 3 {
		t.Fatalf("got %v, want [4 3]", x)
	}
}

func TestSolveDenseErrors(t *testing.T) {
	if _, err := SolveDense(nil, nil); err == nil {
		t.Fatalf("empty system must error")
	}
	if _, err := SolveDense([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatalf("non-square system must error")
	}
	if _, err := SolveDense([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Fatalf("singular system must error")
	}
	if _, err := SolveDense([][]float64{{1, 2}, {3, 4}}, []float64{1}); err == nil {
		t.Fatalf("rhs length mismatch must error")
	}
}

// Property: residual of SolveDense is tiny for random diagonally dominant
// systems.
func TestSolveDenseResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := make([][]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			sum := 0.0
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
				sum += math.Abs(a[i][j])
			}
			a[i][i] = sum + 1 // diagonal dominance
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		for i := range a {
			r := -b[i]
			for j := range a[i] {
				r += a[i][j] * x[j]
			}
			if math.Abs(r) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func buildLaplacian(n int) (*csrMatrix, []float64) {
	// 1-D Laplacian with Dirichlet ends: SPD.
	m := newCSR(n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		m.Add(i, i, 2)
		if i > 0 {
			m.Add(i, i-1, -1)
		}
		if i < n-1 {
			m.Add(i, i+1, -1)
		}
		b[i] = 1
	}
	return m, b
}

// TestSparseSolversAgreeWithDense checks the reference CG the MG-PCG tests
// compare against: on a 1-D Laplacian it must match dense elimination.
func TestSparseSolversAgreeWithDense(t *testing.T) {
	const n = 30
	m, b := buildLaplacian(n)
	want, err := SolveDense(m.dense(), b)
	if err != nil {
		t.Fatal(err)
	}
	cg, _, err := refCG(m, b, 1e-12, 10000)
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(cg[i]-want[i]) > 1e-6 {
			t.Fatalf("CG[%d] = %g, want %g", i, cg[i], want[i])
		}
	}
}

func TestSparseMulVec(t *testing.T) {
	m, _ := buildLaplacian(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	m.MulVec(x, y)
	want := []float64{0, 0, 0, 5} // tridiagonal [2,-1] stencil
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestSparseAccumulates(t *testing.T) {
	m := newCSR(2)
	m.Add(0, 1, -1)
	m.Add(0, 1, -1) // accumulate into the same entry
	m.Add(0, 0, 3)
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1}, y)
	if y[0] != 1 {
		t.Fatalf("accumulated entry wrong: y[0] = %g, want 1", y[0])
	}
}

// buildMesh2D builds the n×n 5-point mesh Laplacian with Dirichlet boundary
// (the structure of the power-grid IR-drop systems) and a uniform RHS.
func buildMesh2D(n int) (*csrMatrix, []float64) {
	m := newCSR(n * n)
	b := make([]float64, n*n)
	at := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			m.Add(at(r, c), at(r, c), 4)
			if r > 0 {
				m.Add(at(r, c), at(r-1, c), -1)
			}
			if r < n-1 {
				m.Add(at(r, c), at(r+1, c), -1)
			}
			if c > 0 {
				m.Add(at(r, c), at(r, c-1), -1)
			}
			if c < n-1 {
				m.Add(at(r, c), at(r, c+1), -1)
			}
			b[at(r, c)] = 1
		}
	}
	return m, b
}

// TestSolversAgreeOnSPDSystems is the table-driven agreement check of the
// reference CG: on small SPD systems, including the degenerate 1×1 and
// diagonal ones, it must produce the dense-elimination solution.
func TestSolversAgreeOnSPDSystems(t *testing.T) {
	d := newCSR(4)
	for i := 0; i < 4; i++ {
		d.Add(i, i, float64(i+1))
	}
	lap := func(n int) func() (*csrMatrix, []float64) {
		return func() (*csrMatrix, []float64) { return buildLaplacian(n) }
	}
	for _, tc := range []struct {
		name  string
		build func() (*csrMatrix, []float64)
	}{
		{"laplacian1d-1", lap(1)},
		{"laplacian1d-2", lap(2)},
		{"laplacian1d-13", lap(13)},
		{"mesh2d-5", func() (*csrMatrix, []float64) { return buildMesh2D(5) }},
		{"diag-only", func() (*csrMatrix, []float64) { return d, []float64{4, 3, 2, 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, b := tc.build()
			want, err := SolveDense(m.dense(), b)
			if err != nil {
				t.Fatal(err)
			}
			cg, iters, err := refCG(m, b, 1e-12, 10000)
			if err != nil {
				t.Fatalf("CG: %v", err)
			}
			if iters <= 0 {
				t.Fatalf("iteration count must be positive: %d", iters)
			}
			for i := range want {
				if math.Abs(cg[i]-want[i]) > 1e-6 {
					t.Fatalf("CG[%d] = %g, want %g", i, cg[i], want[i])
				}
			}
		})
	}
}
