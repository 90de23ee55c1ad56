package mathx

import (
	"fmt"
	"math"
)

// Chebyshev smoother parameters. The V-cycle smooths with a
// degree-chebDegree Chebyshev polynomial in the Jacobi-preconditioned
// operator D⁻¹L — stencil applications and axpy sweeps only, and the fewest
// iterations of the smoothers this package has measured (DESIGN.md §5).
// Gershgorin puts the spectrum of the
// Jacobi-preconditioned mesh Laplacian D⁻¹L inside (0, 2] on every level
// (each row's off-diagonal magnitudes sum to its diagonal), so chebLMax = 2
// is a safe upper bound without estimating eigenvalues. The smoother
// targets the upper band [chebLMax/chebRatio, chebLMax] — the oscillatory
// modes the coarse grid cannot represent — where the degree-d shifted
// Chebyshev residual polynomial damps error by 1/T_d(σ) per application
// (≈ 0.22 for d = 2 at κ = 4); below the band |p(λ)| < 1 monotonically, so
// smooth modes are never amplified and the V-cycle stays positive definite.
const (
	chebLMax   = 2.0
	chebRatio  = 4.0
	chebDegree = 2

	chebLMin  = chebLMax / chebRatio
	chebTheta = (chebLMax + chebLMin) / 2
	chebDelta = (chebLMax - chebLMin) / 2
	chebSigma = chebTheta / chebDelta
)

// MeshMG is a geometric multigrid V-cycle preconditioner specialized to the
// system of the resistive power-grid mesh: an n×n node grid with a
// uniform conductance g on every edge, reflective (Neumann) cell
// boundaries, and exactly one node pinned to 0 V (the bump), whose row and
// column are eliminated from the unknown vector. Plain CG needs O(n)
// iterations on this system (the Laplacian condition number grows with the
// grid); wrapping one V-cycle as the CG preconditioner (SolveMGW) holds the
// iteration count near-constant as n doubles, which is what makes n = 255
// and n = 511 grids tractable.
//
// Internals work on full n_l×n_l grids per level with unit conductance —
// the operator scales linearly in g, so Apply rescales its output by 1/g
// (SetConductance) instead of rebuilding levels. Smoothing is a Chebyshev
// polynomial (see the cheb* constants), transfers are
// bilinear interpolation and its exact transpose, and the coarsest pinned
// system is solved by a Cholesky factorization computed once per
// MeshHierarchy. MeshMG also computes the full-multigrid start SolveMGW
// seeds its iteration with (FMGStart).
// All level storage is preallocated: Apply performs no allocations, so a
// reused MeshMG keeps the whole solve on the zero-alloc warm path.
type MeshMG struct {
	levels []*mgLevel
	invG   float64

	chol   []float64 // shared read-only Cholesky factor (MeshHierarchy)
	cb, cx []float64 // coarsest gather/scatter scratch, length nc²−1
}

// MeshHierarchy is the read-only half of a MeshMG for one (n, pin): the
// level geometry, each level's inverse diagonal and the coarsest-level
// Cholesky factor. It is safe for concurrent use, so every MeshMG of one
// mesh size can share it and own only its mutable level vectors.
type MeshHierarchy struct {
	levels []mgShape
	chol   []float64 // lower triangle, row-major m×m, m = nc²−1
}

// mgShape is the read-only geometry of one level. off is the sublattice
// offset used to coarsen THIS level: coarse node k sits at fine index
// 2k+off per axis. The offset is chosen to match the pin's parity, so the
// pinned node is a coarse point on every level — without that, the
// long-range mode anchored only by the pin is mis-modelled on coarse grids
// and the V-cycle's effectiveness decays as levels are added (measured:
// iteration counts grew 22→61 from n=31 to n=255 with even-only
// coarsening; they stay ≤ ~15 with parity-matched coarsening).
type mgShape struct {
	n       int
	pin     int
	off     int
	invDiag []float64 // 1 / degree, 0 at the pin
}

// mgLevel is one grid of a MeshMG: the shared shape plus this
// preconditioner's own vectors. x/b/r span the full n×n grid; the pinned
// node is held at 0 by a zero entry in the inverse diagonals (no smoother
// moves it) and by explicit zeroing after prolongation.
type mgLevel struct {
	mgShape
	x, b, r []float64
	d       []float64 // Chebyshev direction scratch
}

// mgCoarsest is the grid size at which the hierarchy bottoms out into the
// dense direct solve (≤ 63 unknowns — negligible either way).
const mgCoarsest = 8

// NewMeshHierarchy builds the shared level geometry for an n×n mesh with
// the node at flat index pin (row·n + col) held at 0 V.
func NewMeshHierarchy(n, pin int) (*MeshHierarchy, error) {
	if n < 3 {
		return nil, fmt.Errorf("mathx: mesh multigrid needs n ≥ 3, got %d", n)
	}
	if pin < 0 || pin >= n*n {
		return nil, fmt.Errorf("mathx: pinned node %d outside %d×%d grid", pin, n, n)
	}
	pr, pc := pin/n, pin%n
	h := &MeshHierarchy{}
	for ln := n; ; {
		lev := mgShape{n: ln, pin: pr*ln + pc, invDiag: make([]float64, ln*ln)}
		for r := 0; r < ln; r++ {
			for c := 0; c < ln; c++ {
				deg := 0.0
				if r > 0 {
					deg++
				}
				if r < ln-1 {
					deg++
				}
				if c > 0 {
					deg++
				}
				if c < ln-1 {
					deg++
				}
				lev.invDiag[r*ln+c] = 1 / deg
			}
		}
		lev.invDiag[lev.pin] = 0
		if ln <= mgCoarsest {
			h.levels = append(h.levels, lev)
			break
		}
		// Coarsen onto the sublattice containing the pin (coarse node k at
		// fine index 2k+off), so the Dirichlet anchor survives on every
		// level. A centered pin has pr == pc, so one offset serves both
		// axes; if an off-diagonal pin ever breaks the parity match, fall
		// back to the even sublattice and let the pin drift to its nearest
		// coarse node (the V-cycle only preconditions — CG absorbs the
		// mismatch at some iteration cost).
		off := 0
		if pr%2 == pc%2 {
			off = pr % 2
		}
		lev.off = off
		h.levels = append(h.levels, lev)
		ln = (ln - off + 1) / 2
		pr, pc = (pr-off+1)/2, (pc-off+1)/2
		if pr > ln-1 {
			pr = ln - 1
		}
		if pc > ln-1 {
			pc = ln - 1
		}
	}
	if err := h.factorCoarsest(); err != nil {
		return nil, err
	}
	return h, nil
}

// NewMeshMG allocates a preconditioner over the shared hierarchy h: level
// vectors of its own, geometry, inverse diagonals and coarsest factor
// borrowed from h. Unit edge conductance; call SetConductance to match the
// system before Apply.
func NewMeshMG(h *MeshHierarchy) *MeshMG {
	mg := &MeshMG{invG: 1, chol: h.chol}
	for _, shape := range h.levels {
		sz := shape.n * shape.n
		mg.levels = append(mg.levels, &mgLevel{
			mgShape: shape,
			x:       make([]float64, sz),
			b:       make([]float64, sz),
			r:       make([]float64, sz),
			d:       make([]float64, sz),
		})
	}
	last := h.levels[len(h.levels)-1]
	m := last.n*last.n - 1
	mg.cb = make([]float64, m)
	mg.cx = make([]float64, m)
	return mg
}

// SetConductance declares the edge conductance of the system being
// preconditioned; Apply divides its output by g (the mesh operator is g
// times the unit-conductance one, so its inverse scales by 1/g).
func (mg *MeshMG) SetConductance(g float64) error {
	if !(g > 0) {
		return fmt.Errorf("mathx: non-positive mesh conductance %g", g)
	}
	mg.invG = 1 / g
	return nil
}

// Apply runs one V-cycle: z ≈ A⁻¹·r for the pinned mesh system, both
// vectors in the eliminated layout (length n²−1, the pinned node skipped).
// Allocation-free and deterministic.
func (mg *MeshMG) Apply(r, z []float64) {
	f := mg.levels[0]
	pin := f.pin
	copy(f.b[:pin], r[:pin])
	f.b[pin] = 0
	copy(f.b[pin+1:], r[pin:])
	mg.vcycle(0, true)
	invG := mg.invG
	for j := 0; j < pin; j++ {
		z[j] = f.x[j] * invG
	}
	for j := pin; j < len(z); j++ {
		z[j] = f.x[j+1] * invG
	}
}

// FMGStart seeds x with one full-multigrid pass over b (both in the
// eliminated layout): b is restricted down every level, the coarsest is
// solved exactly, and the solution is interpolated upward with one V-cycle
// of polishing per level. The result approximates A⁻¹b to roughly V-cycle
// accuracy for about 4/3 of one fine V-cycle's work, so MG-PCG started here
// saves several Krylov iterations against a zero guess.
func (mg *MeshMG) FMGStart(b, x []float64) {
	f := mg.levels[0]
	pin := f.pin
	copy(f.b[:pin], b[:pin])
	f.b[pin] = 0
	copy(f.b[pin+1:], b[pin:])
	for k := 0; k+1 < len(mg.levels); k++ {
		fine, coarse := mg.levels[k], mg.levels[k+1]
		restrict(fine, coarse, fine.b)
		coarse.b[coarse.pin] = 0
	}
	last := len(mg.levels) - 1
	mg.coarseSolve(mg.levels[last])
	for k := last - 1; k >= 0; k-- {
		lev := mg.levels[k]
		// Interpolate the coarser solution up as the starting iterate, then
		// polish with one V-cycle at this level. The recursion below only
		// touches the levels beneath k, whose FMG right-hand sides have
		// already been consumed.
		for i := range lev.x {
			lev.x[i] = 0
		}
		prolongAdd(mg.levels[k+1], lev)
		lev.x[lev.pin] = 0
		mg.vcycle(k, false)
	}
	invG := mg.invG
	for j := 0; j < pin; j++ {
		x[j] = f.x[j] * invG
	}
	for j := pin; j < len(x); j++ {
		x[j] = f.x[j+1] * invG
	}
}

// vcycle runs the cycle from level k downward, solving lev.b into lev.x.
// zeroStart declares lev.x is to be treated as 0 (its storage may hold
// stale data), which lets the first smoothing sweep skip one operator
// application; the FMG upward leg passes false to polish a prolonged
// iterate instead.
func (mg *MeshMG) vcycle(k int, zeroStart bool) {
	lev := mg.levels[k]
	if k == len(mg.levels)-1 {
		mg.coarseSolve(lev)
		return
	}
	// Chebyshev polynomials in D⁻¹L are A-self-adjoint, so the same
	// smoother before and after the coarse correction keeps the V-cycle a
	// symmetric operator — the property SolveMGW's CG wrapper requires.
	lev.chebSmooth(zeroStart)
	// Residual of the smoothed iterate, restricted to the coarse RHS.
	lev.applyRes(lev.x, lev.b, lev.r)
	lev.r[lev.pin] = 0
	next := mg.levels[k+1]
	restrict(lev, next, lev.r)
	next.b[next.pin] = 0
	mg.vcycle(k+1, true)
	prolongAdd(next, lev)
	lev.x[lev.pin] = 0
	lev.chebSmooth(false)
}

// chebSmooth applies the degree-chebDegree Chebyshev polynomial smoother:
// the standard three-term recurrence on the interval [chebLMin, chebLMax]
// of the Jacobi-preconditioned operator, built from applyRes/applySub
// stencil applications and fused axpy sweeps only. The pin never moves
// because invDiag is zero there, so every direction d has d[pin] = 0.
func (l *mgLevel) chebSmooth(zeroStart bool) {
	const invTheta = 1 / chebTheta
	x, b, r, d, di := l.x, l.b, l.r, l.d, l.invDiag
	if zeroStart {
		// x = 0: the residual is b and the first correction needs no
		// operator application (r = b, d = (1/θ)·D⁻¹·r, x = d).
		for i := range x {
			ri := b[i]
			r[i] = ri
			v := invTheta * di[i] * ri
			d[i] = v
			x[i] = v
		}
	} else {
		// r = b − A·x, d = (1/θ)·D⁻¹·r, x += d.
		l.applyRes(x, b, r)
		for i := range x {
			v := invTheta * di[i] * r[i]
			d[i] = v
			x[i] += v
		}
	}
	rho := 1 / chebSigma
	for k := 1; k < chebDegree; k++ {
		// r −= A·d, then d = c1·d + c2·D⁻¹·r, x += d.
		l.applySub(d, r)
		rhoNext := 1 / (2*chebSigma - rho)
		c1, c2 := rhoNext*rho, 2*rhoNext/chebDelta
		for i := range x {
			v := c1*d[i] + c2*di[i]*r[i]
			d[i] = v
			x[i] += v
		}
		rho = rhoNext
	}
}

// applyRes computes r = b − L·x for the unit-conductance 5-point Neumann
// Laplacian on the level grid (no pin handling — the pin is managed by the
// caller via the zeroed inverse diagonals and explicit zeroing). Fusing the
// subtraction into the stencil saves one full vector sweep against a
// separate y = L·x pass, and the interior columns run branch-free.
// Neighbour sums accumulate in up, down, left, right order (matching the
// historical branchy kernel bit for bit).
func (l *mgLevel) applyRes(x, b, r []float64) {
	n := l.n
	for row := 0; row < n; row++ {
		i0 := r0w(row, n)
		switch {
		case row == 0:
			i := i0
			r[i] = b[i] - (2*x[i] - (x[i+n] + x[i+1]))
			for i = i0 + 1; i < i0+n-1; i++ {
				r[i] = b[i] - (3*x[i] - (x[i+n] + x[i-1] + x[i+1]))
			}
			r[i] = b[i] - (2*x[i] - (x[i+n] + x[i-1]))
		case row == n-1:
			i := i0
			r[i] = b[i] - (2*x[i] - (x[i-n] + x[i+1]))
			for i = i0 + 1; i < i0+n-1; i++ {
				r[i] = b[i] - (3*x[i] - (x[i-n] + x[i-1] + x[i+1]))
			}
			r[i] = b[i] - (2*x[i] - (x[i-n] + x[i-1]))
		default:
			i := i0
			r[i] = b[i] - (3*x[i] - (x[i-n] + x[i+n] + x[i+1]))
			for i = i0 + 1; i < i0+n-1; i++ {
				r[i] = b[i] - (4*x[i] - (x[i-n] + x[i+n] + x[i-1] + x[i+1]))
			}
			r[i] = b[i] - (3*x[i] - (x[i-n] + x[i+n] + x[i-1]))
		}
	}
}

// applySub computes y −= L·x (same stencil as applyRes); the Chebyshev
// recurrence uses it to keep its residual current without a separate
// scratch vector.
func (l *mgLevel) applySub(x, y []float64) {
	n := l.n
	for row := 0; row < n; row++ {
		i0 := r0w(row, n)
		switch {
		case row == 0:
			i := i0
			y[i] -= 2*x[i] - (x[i+n] + x[i+1])
			for i = i0 + 1; i < i0+n-1; i++ {
				y[i] -= 3*x[i] - (x[i+n] + x[i-1] + x[i+1])
			}
			y[i] -= 2*x[i] - (x[i+n] + x[i-1])
		case row == n-1:
			i := i0
			y[i] -= 2*x[i] - (x[i-n] + x[i+1])
			for i = i0 + 1; i < i0+n-1; i++ {
				y[i] -= 3*x[i] - (x[i-n] + x[i-1] + x[i+1])
			}
			y[i] -= 2*x[i] - (x[i-n] + x[i-1])
		default:
			i := i0
			y[i] -= 3*x[i] - (x[i-n] + x[i+n] + x[i+1])
			for i = i0 + 1; i < i0+n-1; i++ {
				y[i] -= 4*x[i] - (x[i-n] + x[i+n] + x[i-1] + x[i+1])
			}
			y[i] -= 3*x[i] - (x[i-n] + x[i+n] + x[i-1])
		}
	}
}

// r0w is row*n, named to keep the stencil kernels' index arithmetic
// visually distinct from their residual vector r.
func r0w(row, n int) int { return row * n }

// gatherWeights returns the weights with which the coarse node at fine
// index 2rc+off gathers its low (fr−1) and high (fr+1) fine neighbours
// along one axis — the exact transpose of axisWeights below. A weight of 0
// means that neighbour is off the grid. Interior off-lattice fine nodes
// split ½/½ between their two straddling coarse nodes; ORPHAN fine nodes
// (off=1 boundary nodes outside the coarse hull) belong wholly to their
// single coarse neighbour with weight 1 — see axisWeights for why.
func gatherWeights(rc, off, n, nc int) (wLo, wHi float64) {
	fr := 2*rc + off
	if fr > 0 {
		wLo = 0.5
		if fr-1 < off { // fine node off−1 sits below coarse node 0
			wLo = 1
		}
	}
	if fr < n-1 {
		wHi = 0.5
		if rc == nc-1 { // fine node 2nc−1+off sits above the last coarse node
			wHi = 1
		}
	}
	return
}

// restrict transfers the fine vector src (the smoothed residual on the
// V-cycle's downward leg, the right-hand side on the FMG one) to the coarse
// RHS with the exact transpose of the bilinear prolongation below: each
// coarse node (at fine index 2R+off, 2C+off) gathers itself with weight 1,
// edge neighbours with ½ (1 for boundary orphans), and corner neighbours
// with the product of the axis weights.
func restrict(fine, coarse *mgLevel, src []float64) {
	n, nc, off := fine.n, coarse.n, fine.off
	r := src
	for rc := 0; rc < nc; rc++ {
		fr := 2*rc + off
		wU, wD := gatherWeights(rc, off, n, nc)
		for cc := 0; cc < nc; cc++ {
			fc := 2*cc + off
			wL, wR := gatherWeights(cc, off, n, nc)
			i := fr*n + fc
			s := r[i]
			if wU != 0 {
				s += wU * r[i-n]
			}
			if wD != 0 {
				s += wD * r[i+n]
			}
			if wL != 0 {
				s += wL * r[i-1]
			}
			if wR != 0 {
				s += wR * r[i+1]
			}
			if wU != 0 && wL != 0 {
				s += wU * wL * r[i-n-1]
			}
			if wU != 0 && wR != 0 {
				s += wU * wR * r[i-n+1]
			}
			if wD != 0 && wL != 0 {
				s += wD * wL * r[i+n-1]
			}
			if wD != 0 && wR != 0 {
				s += wD * wR * r[i+n+1]
			}
			coarse.b[rc*nc+cc] = s
		}
	}
}

// axisWeights maps a fine index to its straddling coarse indices and
// bilinear weights on the 2k+off sublattice. A fine node ON the sublattice
// maps to one coarse node with weight 1; interior off-lattice nodes average
// the two neighbours with weight ½. A boundary ORPHAN (an off=1 fine node
// outside the coarse hull, with only one in-range neighbour) takes FULL
// weight 1 from that neighbour, not ½: prolongation must reproduce
// constants exactly (P·1 = 1 everywhere), or the Galerkin energy PᵀAP of
// near-constant modes picks up a spurious boundary term the rediscretized
// coarse operator doesn't see — its coarse solve then over-corrects those
// lowest-energy modes without bound and the V-cycle diverges (measured:
// ~2× residual growth per cycle with ½-weight clamping). Restriction above
// is the exact transpose of these weights, which is what keeps the V-cycle
// a symmetric operator.
func axisWeights(f, off, nc int) (c0 int, w0 float64, c1 int, w1 float64) {
	d := f - off
	if d >= 0 && d%2 == 0 {
		return d / 2, 1, 0, 0
	}
	lo := (d - 1) / 2 // d = −1 (fine node below the sublattice) → lo = −1
	hi := lo + 1
	switch {
	case lo >= 0 && hi < nc:
		return lo, 0.5, hi, 0.5
	case lo >= 0:
		return lo, 1, 0, 0
	default:
		return hi, 1, 0, 0
	}
}

// prolongAdd adds the bilinear interpolation of the coarse correction into
// the fine solution.
func prolongAdd(coarse, fine *mgLevel) {
	n, nc, off := fine.n, coarse.n, fine.off
	xc := coarse.x
	for fr := 0; fr < n; fr++ {
		r0, wr0, r1, wr1 := axisWeights(fr, off, nc)
		base := fr * n
		for fc := 0; fc < n; fc++ {
			c0, wc0, c1, wc1 := axisWeights(fc, off, nc)
			v := wr0 * wc0 * xc[r0*nc+c0]
			if wc1 != 0 {
				v += wr0 * wc1 * xc[r0*nc+c1]
			}
			if wr1 != 0 {
				v += wr1 * wc0 * xc[r1*nc+c0]
				if wc1 != 0 {
					v += wr1 * wc1 * xc[r1*nc+c1]
				}
			}
			fine.x[base+fc] += v
		}
	}
}

// factorCoarsest builds and Cholesky-factors the coarsest pinned system
// (unit conductance, eliminated layout) once per hierarchy.
func (h *MeshHierarchy) factorCoarsest() error {
	lev := h.levels[len(h.levels)-1]
	n, pin := lev.n, lev.pin
	m := n*n - 1
	full := func(j int) int { // eliminated index → full-grid index
		if j >= pin {
			return j + 1
		}
		return j
	}
	elim := make([]int, n*n) // full-grid index → eliminated index (−1 at pin)
	for i := range elim {
		switch {
		case i == pin:
			elim[i] = -1
		case i > pin:
			elim[i] = i - 1
		default:
			elim[i] = i
		}
	}
	a := make([]float64, m*m)
	for j := 0; j < m; j++ {
		i := full(j)
		r, c := i/n, i%n
		deg := 0.0
		link := func(nb int) {
			deg++
			if k := elim[nb]; k >= 0 {
				a[j*m+k] = -1
			}
		}
		if r > 0 {
			link(i - n)
		}
		if r < n-1 {
			link(i + n)
		}
		if c > 0 {
			link(i - 1)
		}
		if c < n-1 {
			link(i + 1)
		}
		a[j*m+j] = deg
	}
	// In-place dense Cholesky a = L·Lᵀ (lower triangle).
	for j := 0; j < m; j++ {
		d := a[j*m+j]
		for k := 0; k < j; k++ {
			d -= a[j*m+k] * a[j*m+k]
		}
		if d <= 0 {
			return fmt.Errorf("mathx: coarsest mesh system not SPD (pivot %g at %d): %w", d, j, ErrNotSPD)
		}
		d = math.Sqrt(d)
		a[j*m+j] = d
		inv := 1 / d
		for i := j + 1; i < m; i++ {
			s := a[i*m+j]
			for k := 0; k < j; k++ {
				s -= a[i*m+k] * a[j*m+k]
			}
			a[i*m+j] = s * inv
		}
	}
	h.chol = a
	return nil
}

// coarseSolve solves the coarsest level exactly through the stored
// Cholesky factor.
func (mg *MeshMG) coarseSolve(lev *mgLevel) {
	n, pin := lev.n, lev.pin
	m := n*n - 1
	copy(mg.cb[:pin], lev.b[:pin])
	copy(mg.cb[pin:], lev.b[pin+1:])
	l := mg.chol
	// Forward L·y = b.
	for i := 0; i < m; i++ {
		s := mg.cb[i]
		for k := 0; k < i; k++ {
			s -= l[i*m+k] * mg.cx[k]
		}
		mg.cx[i] = s / l[i*m+i]
	}
	// Back Lᵀ·x = y.
	for i := m - 1; i >= 0; i-- {
		s := mg.cx[i]
		for k := i + 1; k < m; k++ {
			s -= l[k*m+i] * mg.cx[k]
		}
		mg.cx[i] = s / l[i*m+i]
	}
	copy(lev.x[:pin], mg.cx[:pin])
	lev.x[pin] = 0
	copy(lev.x[pin+1:], mg.cx[pin:])
}

// Workspace holds the Krylov vectors of SolveMGW so repeated solves of
// same-sized systems allocate nothing. A zero Workspace is ready to use; it
// grows on demand and is NOT safe for concurrent use — each goroutine needs
// its own.
//
// The solution slice SolveMGW returns aliases the workspace and is only
// valid until the next solve that reuses it.
//
// There is no separate preconditioned-residual vector: SolveMGW forms
// z = M⁻¹·r only after r has consumed A·p, so z lives in ap's storage.
type Workspace struct {
	x, r, p, ap []float64
}

// grow resizes the Krylov vectors to length n and zeroes x.
func (w *Workspace) grow(n int) {
	if cap(w.x) < n {
		w.x = make([]float64, n)
		w.r = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
	}
	w.x, w.r, w.p, w.ap = w.x[:n], w.r[:n], w.p[:n], w.ap[:n]
	for i := range w.x {
		w.x[i] = 0
	}
}

// SolveMGW solves A·x = b for the pinned mesh system a by conjugate
// gradients preconditioned with one mg V-cycle per iteration (MG-PCG),
// reusing ws for every vector including the returned solution. mg must be
// built for a's grid and pin, with the same conductance declared. The
// iteration begins from mg's full-multigrid start instead of x = 0, which
// typically saves several Krylov iterations for ~4/3 of a V-cycle of extra
// work. This is the production power-grid path: near-constant iteration
// counts as the mesh refines, zero allocations on the warm path.
//
// It returns (x, iters, err) where iters is the number of Krylov
// iterations performed, and convergence means the recursively-updated
// residual, which tracks the true one to round-off, satisfies
// ‖b − A·x‖₂ ≤ tol·‖b‖₂. On iteration exhaustion the last iterate is
// returned together with an error wrapping ErrNoConverge that records the
// final relative residual; a failed positivity guard returns ErrNotSPD
// and no solution.
func SolveMGW(a *MeshOperator, ws *Workspace, mg *MeshMG, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	return solveMGW(a, ws, mg, b, tol, maxIter, true)
}

// solveMGW is SolveMGW with the full-multigrid start optional: fmg = false
// starts from x = 0, which only the tests use, to measure what the start
// saves.
func solveMGW(a *MeshOperator, ws *Workspace, mg *MeshMG, b []float64, tol float64, maxIter int, fmg bool) ([]float64, int, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, 0, fmt.Errorf("mathx: rhs length %d, want %d", len(b), n)
	}
	ws.grow(n)
	x, r, p, ap := ws.x, ws.r, ws.p, ws.ap
	z := ap // dead once r is updated (see Workspace)
	copy(r, b)
	bNorm := math.Sqrt(dot(r, r))
	if bNorm == 0 {
		return x, 0, nil
	}
	if fmg {
		// r = b − A·x₀ for the interpolated start. Convergence still tests
		// against ‖b‖, so the tolerance is unchanged — the start only moves
		// the iteration closer to it.
		mg.FMGStart(b, x)
		a.MulVec(x, ap)
		for i := range r {
			r[i] = b[i] - ap[i]
		}
	}
	mg.Apply(r, z)
	copy(p, z)
	rz := dot(r, z)
	if !(rz > 0) {
		return nil, 0, fmt.Errorf("mathx: MG-PCG: preconditioner not positive definite (rᵀz = %g): %w", rz, ErrNotSPD)
	}
	rNorm := math.Sqrt(dot(r, r))
	for iter := 1; iter <= maxIter; iter++ {
		a.MulVec(p, ap)
		pAp := dot(p, ap)
		// NaN also fails these comparisons, so poisoned inputs are caught.
		if !(pAp > 0) {
			return nil, iter, fmt.Errorf("mathx: MG-PCG: curvature pᵀAp = %g at iteration %d: %w", pAp, iter, ErrNotSPD)
		}
		alpha := rz / pAp
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rr := dot(r, r)
		rNorm = math.Sqrt(rr)
		if rNorm <= tol*bNorm {
			return x, iter, nil
		}
		mg.Apply(r, z)
		rzNew := dot(r, z)
		if !(rzNew > 0) {
			return nil, iter, fmt.Errorf("mathx: MG-PCG: preconditioner not positive definite (rᵀz = %g): %w", rzNew, ErrNotSPD)
		}
		beta := rzNew / rz
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		rz = rzNew
	}
	return x, maxIter, fmt.Errorf("mathx: MG-PCG: %w after %d iterations (relative residual %.3g)",
		ErrNoConverge, maxIter, rNorm/bNorm)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
