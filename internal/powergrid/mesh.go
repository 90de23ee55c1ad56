package powergrid

import (
	"fmt"
	"math"

	"nanometer/internal/mathx"
)

// Mesh is a 2-D resistive power-grid model of one bump cell: an n×n node
// mesh spanning the bump pitch, rails of the sized width in both routing
// directions, uniform (hot-spot) current draw per node, and the bump as the
// voltage source in the center. It validates the 1-D analytic strip model
// (which should be conservative, since it ignores 2-D current spreading).
type Mesh struct {
	// N is the mesh dimension (nodes per side, odd so a center node
	// exists).
	N int
	// PitchM is the cell span (the bump pitch).
	PitchM float64
	// EdgeOhms is the resistance of one mesh edge.
	EdgeOhms float64
	// NodeCurrentA is the draw per mesh node.
	NodeCurrentA float64
}

// Mesh dimension limits, enforced here (not just at the CLI/HTTP
// boundaries) because the serving layer exposes the dimension to untrusted
// query strings: MinMeshN is the smallest grid that still has an interior
// ring around the pinned center bump, and MaxMeshN caps the unknown count
// (n²−1 ≈ 10⁶ at 1023) so one request cannot allocate unbounded solver and
// multigrid state.
const (
	MinMeshN = 5
	MaxMeshN = 1023
)

// NewMesh discretizes a grid spec with rails of width railWidthM at rail
// pitch railPitchM into an n×n mesh (n forced odd so a center bump node
// exists; n outside [MinMeshN, MaxMeshN] is rejected rather than clamped,
// so nonsense like a negative dimension fails loudly at the model layer
// even if a caller skipped boundary validation).
func NewMesh(s GridSpec, railWidthM, railPitchM float64, n int) (*Mesh, error) {
	if n < MinMeshN {
		return nil, fmt.Errorf("powergrid: mesh dimension %d too small (min %d)", n, MinMeshN)
	}
	if n%2 == 0 {
		n++
	}
	if n > MaxMeshN {
		return nil, fmt.Errorf("powergrid: mesh dimension %d too large (max %d)", n, MaxMeshN)
	}
	if railWidthM <= 0 || railPitchM <= 0 {
		return nil, fmt.Errorf("powergrid: non-positive rail geometry (w=%g, p=%g)", railWidthM, railPitchM)
	}
	seg := s.BumpPitchM / float64(n-1)
	// Equivalent sheet: rails of width W at pitch p give an effective
	// sheet resistance of ρs·p/W; a mesh edge spans one square of it.
	rEdge := s.Node.TopMetalSheetOhms() * railPitchM / railWidthM
	j := s.currentDensity()
	return &Mesh{
		N:            n,
		PitchM:       s.BumpPitchM,
		EdgeOhms:     rEdge,
		NodeCurrentA: j * seg * seg,
	}, nil
}

// Solve computes the node drops with the center node pinned at 0 V and
// reflective (Neumann) cell boundaries, returning the maximum IR drop on
// the net. The same drop occurs on the ground net, so the supply-loop drop
// is twice the returned value.
func (m *Mesh) Solve() (maxDropV float64, err error) {
	sv, err := acquireSolver(m.N)
	if err != nil {
		return 0, err
	}
	defer releaseSolver(sv)
	g := 1 / m.EdgeOhms
	if err := sv.op.SetConductance(g); err != nil {
		return 0, fmt.Errorf("powergrid: mesh solve: %w", err)
	}
	if err := sv.mg.SetConductance(g); err != nil {
		return 0, fmt.Errorf("powergrid: mesh solve: %w", err)
	}
	for i := range sv.rhs {
		sv.rhs[i] = m.NodeCurrentA
	}
	// Multigrid-preconditioned CG: plain CG needs O(n) iterations on the
	// mesh Laplacian (and Jacobi buys nothing — the diagonal is
	// near-constant), while one geometric V-cycle per iteration holds the
	// count near-constant as the grid refines (BenchmarkMeshSolve; the
	// mathx iteration-count test pins ≤ 25 through n = 255). The solution
	// aliases the solver's workspace, so the max-drop reduction below must
	// happen before the solver is released.
	// Cancellation granularity is deliberately per-artifact: the runner and
	// jobs layers check ctx between computes, and a single mesh solve is
	// bounded (≤ 25 MG-CG iterations by the mathx pin), so threading ctx
	// into the kernel would buy nothing but signature churn.
	//lint:allow ctxflow solver kernel; cancellation is per-artifact upstream
	sol, iters, err := mathx.SolveMGW(sv.op, &sv.ws, sv.mg, sv.rhs, 1e-10, 20*len(sv.rhs))
	if err != nil {
		return 0, fmt.Errorf("powergrid: mesh solve: %w", err)
	}
	recordSolve(iters)
	for _, v := range sol {
		// Drops are positive (current flows into the pinned bump).
		if d := math.Abs(v); d > maxDropV {
			maxDropV = d
		}
	}
	return maxDropV, nil
}

// PessimisticRatio solves the 2-D smeared mesh for a sized grid and returns
// mesh-loop-drop / top-metal-budget. The mesh routes *all* current —
// including the share the designer's lower grid would normally carry
// sideways — through the top-level sheet, so ratios well above 1 quantify
// how much the analytic model leans on a healthy lower grid.
//
// The drop is memoized per exact mesh (solveMemo): the variants of a
// scenario sweep that leaves the 35 nm grid alone all size the same mesh,
// and only the first of them solves it. Mesh.Solve itself never memoizes.
func PessimisticRatio(s GridSpec, n int) (ratio float64, err error) {
	mesh, err := PessimisticMesh(s, n)
	if err != nil {
		return 0, err
	}
	drop, err := solveMemo(mesh)
	if err != nil {
		return 0, err
	}
	return 2 * drop / s.topBudgetV(), nil
}

// PessimisticMesh builds (without solving) the mesh PessimisticRatio
// solves: the sized grid's top-level sheet carrying all current. Split out
// so benchmarks and tools can time Mesh.Solve on it directly, outside the
// memo.
func PessimisticMesh(s GridSpec, n int) (*Mesh, error) {
	sz, err := s.SizeRails()
	if err != nil {
		return nil, err
	}
	return NewMesh(s, sz.RailWidthM, s.BumpPitchM, n)
}

// Ladder is the 1-D discretization of one rail span between two bumps: n
// segments with the strip current tapped uniformly along the span and both
// ends pinned — the exact structure the analytic sizing integrates.
type Ladder struct {
	// N is the number of segments.
	N int
	// SegOhms is the per-segment rail resistance; TapCurrentA the draw per
	// interior node.
	SegOhms, TapCurrentA float64
}

// NewLadder discretizes a sized rail span.
func NewLadder(s GridSpec, railWidthM float64, n int) (*Ladder, error) {
	if n < 4 {
		n = 4
	}
	if railWidthM <= 0 {
		return nil, fmt.Errorf("powergrid: non-positive rail width %g", railWidthM)
	}
	seg := s.BumpPitchM / float64(n)
	return &Ladder{
		N:           n,
		SegOhms:     s.Node.TopMetalSheetOhms() * seg / railWidthM,
		TapCurrentA: s.currentDensity() * s.BumpPitchM * seg,
	}, nil
}

// Solve returns the peak drop along the span (both ends grounded).
func (l *Ladder) Solve() (float64, error) {
	v, err := l.drops()
	if err != nil {
		return 0, err
	}
	peak := 0.0
	for _, x := range v {
		if x > peak {
			peak = x
		}
	}
	return peak, nil
}

// drops solves the interior nodes 1..N−1 of the ladder — the tridiagonal
// system 2g on the diagonal, −g beside it, TapCurrentA on the right — in
// O(N) time and memory. It performs exactly the floating-point operations
// mathx.SolveDense performs on the dense form, in the same order, so the
// drops are bit-identical to it: SolveDense's partial pivot never swaps
// (each eliminated diagonal stays above g, the only other candidate), the
// only nonzero factor at column i is row i+1's, and the entries it skips
// are zeros that cannot change a sum.
func (l *Ladder) drops() ([]float64, error) {
	n := l.N - 1
	if n < 1 {
		return nil, fmt.Errorf("powergrid: ladder too short")
	}
	g := 1 / l.SegOhms
	off := -g
	d := make([]float64, n) // eliminated diagonal
	x := make([]float64, n) // right-hand side, then solution
	for i := range d {
		d[i] = 2 * g
		x[i] = l.TapCurrentA
	}
	for i := 0; i < n; i++ {
		if d[i] == 0 {
			return nil, fmt.Errorf("powergrid: singular ladder at node %d (segment resistance %g)", i+1, l.SegOhms)
		}
		if i+1 < n {
			if f := off * (1 / d[i]); f != 0 {
				d[i+1] -= f * off
				x[i+1] -= f * x[i]
			}
		}
	}
	x[n-1] /= d[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = (x[i] - off*x[i+1]) / d[i]
	}
	return x, nil
}

// ValidateAnalytic solves the 1-D ladder for a sized grid and returns the
// ratio ladder-loop-drop / top-metal-budget. Values ≈ 1 (from below as the
// discretization refines) confirm the closed-form sizing.
func ValidateAnalytic(s GridSpec, n int) (ratio float64, err error) {
	sz, err := s.SizeRails()
	if err != nil {
		return 0, err
	}
	lad, err := NewLadder(s, sz.RailWidthM, n)
	if err != nil {
		return 0, err
	}
	drop, err := lad.Solve()
	if err != nil {
		return 0, err
	}
	return 2 * drop / s.topBudgetV(), nil
}
