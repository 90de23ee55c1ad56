package powergrid

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"nanometer/internal/itrs"
	"nanometer/internal/mathx"
	"nanometer/internal/units"
)

func spec35(pitch float64) GridSpec {
	return DefaultSpec(itrs.MustNode(35), pitch)
}

func TestSizeRailsCubicInPitch(t *testing.T) {
	// The analytic model: W ∝ P³ at fixed everything else.
	f := func(seed uint8) bool {
		p := 50e-6 * (1 + float64(seed)/32)
		a, err1 := spec35(p).SizeRails()
		b, err2 := spec35(2 * p).SizeRails()
		if err1 != nil || err2 != nil {
			return false
		}
		return units.ApproxEqual(b.RailWidthM, 8*a.RailWidthM, 1e-9, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeRailsPaperAnchors(t *testing.T) {
	node := itrs.MustNode(35)
	sz, err := spec35(node.BumpPitchMinM).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 16× the minimum width, rails < 4 % of routing, ≈20 % total.
	if sz.WidthOverMin < 10 || sz.WidthOverMin > 22 {
		t.Fatalf("35 nm min-pitch rail width = %.1f × Wmin, paper says 16×", sz.WidthOverMin)
	}
	if sz.RailRoutingFraction > 0.05 {
		t.Fatalf("rail routing share = %.3f, paper says <4%%", sz.RailRoutingFraction)
	}
	if sz.TotalRoutingFraction < 0.17 || sz.TotalRoutingFraction > 0.22 {
		t.Fatalf("total routing share = %.3f, paper says 17-20%%", sz.TotalRoutingFraction)
	}
	// ITRS-plan pitch blows the width up by ~(356/80)³ ≈ 88×.
	szITRS, err := spec35(node.EffectiveBumpPitchM()).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	ratio := szITRS.WidthOverMin / sz.WidthOverMin
	if ratio < 60 || ratio > 120 {
		t.Fatalf("ITRS/min width ratio = %.0f, want ≈88 (cubic in pitch)", ratio)
	}
	if szITRS.WidthOverMin < 500 {
		t.Fatalf("ITRS-plan rail width = %.0f × Wmin, paper says >2000× (order of magnitude)", szITRS.WidthOverMin)
	}
}

func TestSizeRailsErrors(t *testing.T) {
	if _, err := spec35(0).SizeRails(); err == nil {
		t.Fatalf("zero pitch must error")
	}
	s := spec35(80e-6)
	s.IRBudgetFraction = 0
	if _, err := s.SizeRails(); err == nil {
		t.Fatalf("zero budget must error")
	}
	s.IRBudgetFraction = 1.5
	if _, err := s.SizeRails(); err == nil {
		t.Fatalf("budget ≥ 1 must error")
	}
}

func TestTighterBudgetWidensRails(t *testing.T) {
	a := spec35(80e-6)
	b := spec35(80e-6)
	b.IRBudgetFraction = 0.05
	sa, _ := a.SizeRails()
	sb, _ := b.SizeRails()
	if sb.RailWidthM <= sa.RailWidthM {
		t.Fatalf("halving the budget must widen the rails")
	}
	if !units.ApproxEqual(sb.RailWidthM, 2*sa.RailWidthM, 1e-9, 0) {
		t.Fatalf("width must be inverse in budget")
	}
}

func TestHotspotScalesWidth(t *testing.T) {
	uniform := spec35(80e-6)
	uniform.HotspotFactor = 1
	hot := spec35(80e-6)
	su, _ := uniform.SizeRails()
	sh, _ := hot.SizeRails()
	if !units.ApproxEqual(sh.RailWidthM, 4*su.RailWidthM, 1e-9, 0) {
		t.Fatalf("4× hot spot must need 4× rails")
	}
}

func TestFeasibleRails(t *testing.T) {
	node := itrs.MustNode(35)
	_, okMin, err := spec35(node.BumpPitchMinM).FeasibleRails()
	if err != nil || !okMin {
		t.Fatalf("min-pitch plan must be feasible (%v)", err)
	}
	// An extreme pitch makes the rails outgrow the pitch itself.
	_, okHuge, err := spec35(1.5e-3).FeasibleRails()
	if err != nil {
		t.Fatal(err)
	}
	if okHuge {
		t.Fatalf("a 1.5 mm bump pitch cannot fit its rails")
	}
}

func TestLadderValidatesAnalytic(t *testing.T) {
	// The 1-D ladder solve must converge to the closed form from below.
	s := spec35(80e-6)
	ratio, err := ValidateAnalytic(s, 512)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-1) > 0.02 {
		t.Fatalf("ladder/analytic = %g, want ≈1", ratio)
	}
	coarse, err := ValidateAnalytic(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if coarse > 1.0+1e-9 {
		t.Fatalf("discretized ladder must not exceed the continuum bound, got %g", coarse)
	}
}

func TestMeshPessimisticBound(t *testing.T) {
	// Forcing the lower-grid current through the top-level sheet must show
	// substantially more drop than the rail budget.
	ratio, err := PessimisticRatio(spec35(80e-6), 31)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 2 || ratio > 20 {
		t.Fatalf("pessimistic mesh ratio = %g, expected several × the budget", ratio)
	}
}

func TestMeshErrors(t *testing.T) {
	if _, err := NewMesh(spec35(80e-6), 0, 80e-6, 11); err == nil {
		t.Fatalf("zero rail width must error")
	}
	if _, err := NewLadder(spec35(80e-6), 0, 16); err == nil {
		t.Fatalf("zero rail width must error")
	}
}

// TestAssemblyCacheBounded: solving at many distinct mesh sizes (the shape
// of a hostile mesh-n scan through the daemon) must not accumulate one
// O(n²) multigrid hierarchy per size forever.
func TestAssemblyCacheBounded(t *testing.T) {
	sz, err := spec35(80e-6).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	for n := 5; n <= 5+2*(3*maxCachedHierarchies); n += 2 {
		m, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Solve(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	count := 0
	meshHierarchies.Range(func(_, _ any) bool { count++; return true })
	// Transient over-admission by racing inserts is tolerated; unbounded
	// growth is not.
	if count > maxCachedHierarchies+1 {
		t.Fatalf("%d hierarchies cached, bound is %d", count, maxCachedHierarchies)
	}
}

// TestSolverSurvivesGC: released solvers stay on the free list, so solves
// of one mesh size separated by garbage collections reuse one instead of
// rebuilding the multigrid levels and workspace — dozens of allocations at
// any size.
func TestSolverSurvivesGC(t *testing.T) {
	sz, err := spec35(80e-6).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, 31)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		if _, err := m.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("solve after two GCs allocates %.0f objects, want a free-list solver reused (≤ 2)", allocs)
	}
}

// TestMeshSolveBitsPinned pins Mesh.Solve's drops, bit for bit, to the
// values the assembled-CSR solver produced before the matrix-free stencil
// replaced it, on both grid specs of the c8 claim family and every mesh
// size the oracle test of the stencil covers.
func TestMeshSolveBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		pitch, hotspot float64
		n              int
		bits           uint64
	}{
		{80e-6, 4, 5, 0x3fb147ae147ae148},
		{80e-6, 4, 7, 0x3fb14be18ae57b24},
		{80e-6, 4, 41, 0x3fb66e180a3107e3},
		{80e-6, 4, 129, 0x3fbb604bc8750a7d},
		{80e-6, 4, 255, 0x3fbe862941d56e5d},
		{80e-6, 4, 257, 0x3fbe8f8994312cb1},
		{120e-6, 2, 5, 0x3fb147ae147ae14d},
		{120e-6, 2, 7, 0x3fb14be18ae57b22},
		{120e-6, 2, 41, 0x3fb66e180a310830},
		{120e-6, 2, 129, 0x3fbb604bc8750cbe},
		{120e-6, 2, 255, 0x3fbe862941d56fc3},
		{120e-6, 2, 257, 0x3fbe8f8994312bc9},
	} {
		if tc.n > 129 && testing.Short() {
			continue
		}
		s := spec35(tc.pitch)
		s.HotspotFactor = tc.hotspot
		m, err := PessimisticMesh(s, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		drop, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(drop); got != tc.bits {
			t.Errorf("pitch %g hotspot %g n %d: drop %v (%#x), want %v (%#x)", tc.pitch, tc.hotspot, tc.n, drop, got, math.Float64frombits(tc.bits), tc.bits)
		}
	}
}

// TestLadderMatchesSolveDense is the O(N) ladder solve's oracle: the whole
// drop vector must equal mathx.SolveDense on the dense tridiagonal system,
// element for element, across sizes and segment resistances.
func TestLadderMatchesSolveDense(t *testing.T) {
	for _, n := range []int{4, 5, 17, 256, 1024} {
		for _, seg := range []float64{1e-3, 0.0717, 1, 3.3e2, 7e5} {
			l := &Ladder{N: n, SegOhms: seg, TapCurrentA: 0.0123}
			got, err := l.drops()
			if err != nil {
				t.Fatal(err)
			}
			m := n - 1
			g := 1 / seg
			a := make([][]float64, m)
			b := make([]float64, m)
			for i := range a {
				a[i] = make([]float64, m)
				a[i][i] = 2 * g
				if i > 0 {
					a[i][i-1] = -g
				}
				if i < m-1 {
					a[i][i+1] = -g
				}
				b[i] = l.TapCurrentA
			}
			want, err := mathx.SolveDense(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("N=%d seg=%g: node %d drop %v, dense %v", n, seg, i+1, got[i], want[i])
				}
			}
		}
	}
	if _, err := (&Ladder{N: 1, SegOhms: 1}).drops(); err == nil {
		t.Error("a one-segment ladder has no interior node; want an error")
	}
	if _, err := (&Ladder{N: 8, SegOhms: math.Inf(1)}).drops(); err == nil {
		t.Error("infinite segment resistance must be singular")
	}
}

// TestSolverFreeListBounded: the free list retains at most GOMAXPROCS
// solvers whatever sizes are released into it, and a second round of
// GOMAXPROCS concurrent solvers of one size is served entirely from the
// solvers the first round released — the same objects, none built.
func TestSolverFreeListBounded(t *testing.T) {
	solvers.mu.Lock()
	solvers.free = nil
	solvers.mu.Unlock()
	width := runtime.GOMAXPROCS(0)
	for n := 5; n < 5+2*(width+3); n += 2 {
		sv, err := acquireSolver(n)
		if err != nil {
			t.Fatal(err)
		}
		releaseSolver(sv)
	}
	solvers.mu.Lock()
	held := len(solvers.free)
	solvers.mu.Unlock()
	if held > width {
		t.Fatalf("free list holds %d solvers, bound is GOMAXPROCS = %d", held, width)
	}
	round := func() map[*meshSolver]bool {
		held := make([]*meshSolver, width)
		for i := range held {
			sv, err := acquireSolver(41)
			if err != nil {
				t.Fatal(err)
			}
			held[i] = sv
		}
		set := map[*meshSolver]bool{}
		for _, sv := range held {
			set[sv] = true
			releaseSolver(sv)
		}
		return set
	}
	first, second := round(), round()
	for sv := range second {
		if !first[sv] {
			t.Fatalf("second round of %d concurrent solvers built a new one", width)
		}
	}
}

// TestConcurrentDistinctMeshSolves: distinct meshes solved side by side
// (the shape of a max_power sweep on several workers) each return the bits
// a serial solve of the same mesh returns.
func TestConcurrentDistinctMeshSolves(t *testing.T) {
	var meshes []*Mesh
	for i := 0; i < 6; i++ {
		s := spec35(80e-6)
		s.HotspotFactor = 2 + 0.5*float64(i)
		m, err := PessimisticMesh(s, 31+2*(i%2))
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, m)
	}
	want := make([]float64, len(meshes))
	for i, m := range meshes {
		d, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	got := make([]float64, len(meshes))
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, m := range meshes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := m.Solve()
				if err != nil {
					t.Error(err)
				}
				got[i] = d
			}()
		}
		wg.Wait()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d mesh %d: concurrent drop %v, serial %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestMeshDimensionLimits: nonsense dimensions are rejected in the model
// layer itself, not only at the CLI/HTTP boundaries — the serving layer
// passes untrusted values down here.
func TestMeshDimensionLimits(t *testing.T) {
	sz, err := spec35(80e-6).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-5, -1, 0, 1, 2, 4} {
		if _, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, n); err == nil {
			t.Errorf("NewMesh(n=%d) must error", n)
		}
	}
	for _, n := range []int{MaxMeshN + 1, 1 << 20} {
		if _, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, n); err == nil {
			t.Errorf("NewMesh(n=%d) must error", n)
		}
	}
	// Even dimensions stay accepted (bumped to odd) and in-range odd ones
	// solve.
	m, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, 10)
	if err != nil {
		t.Fatalf("NewMesh(n=10): %v", err)
	}
	if m.N != 11 {
		t.Errorf("even dimension should round up to 11, got %d", m.N)
	}
	if _, err := m.Solve(); err != nil {
		t.Errorf("solve at n=11: %v", err)
	}
}

func TestCheckBumpCurrentAt35(t *testing.T) {
	chk := CheckBumpCurrent(itrs.MustNode(35))
	if chk.Compatible {
		t.Fatalf("the paper's point: 1500 Vdd bumps cannot carry ~300 A")
	}
	if chk.PerBumpA <= chk.CapabilityA {
		t.Fatalf("per-bump current %g should exceed capability %g", chk.PerBumpA, chk.CapabilityA)
	}
	if chk.RequiredBumps <= chk.VddBumps {
		t.Fatalf("more bumps must be required")
	}
	// At 180 nm the plan closes.
	chk180 := CheckBumpCurrent(itrs.MustNode(180))
	if !chk180.Compatible {
		t.Fatalf("the 180 nm bump plan should be adequate")
	}
}

func TestTransientBounds(t *testing.T) {
	spec := DefaultTransientSpec(itrs.MustNode(35))
	// A very slow ramp is governed by the inductive bound, a fast step by
	// the impedance bound.
	slow, err := spec.Step(30, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if slow.NoiseV != slow.InductiveNoiseV {
		t.Fatalf("slow ramp must be inductor-limited")
	}
	fast, err := spec.Step(30, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if fast.NoiseV != fast.ImpedanceNoiseV {
		t.Fatalf("fast step must be impedance-limited")
	}
	if fast.NoiseV <= slow.NoiseV {
		t.Fatalf("faster steps must droop more")
	}
}

func TestTransientMoreBumpsLessNoise(t *testing.T) {
	node := itrs.MustNode(35)
	few := DefaultTransientSpec(node)
	many := DefaultTransientSpec(node)
	many.PowerBumps = node.PowerBumps() * 20
	nFew, _ := few.Step(30, 1e-12)
	nMany, _ := many.Step(30, 1e-12)
	if nMany.NoiseV >= nFew.NoiseV {
		t.Fatalf("more bumps must reduce droop: %g vs %g", nMany.NoiseV, nFew.NoiseV)
	}
}

func TestMinSafeRampConsistent(t *testing.T) {
	spec := DefaultTransientSpec(itrs.MustNode(35))
	deltaI := 2 * spec.MaxStepA(0.10) // needs staging
	ramp, err := spec.MinSafeRampS(deltaI, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if ramp <= 0 {
		t.Fatalf("an over-budget step needs a positive ramp")
	}
	res, err := spec.Step(deltaI, ramp)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(res.NoiseFraction, 0.10, 1e-6, 0) {
		t.Fatalf("at the safe ramp the droop = %g, want exactly the budget", res.NoiseFraction)
	}
	// A step inside the impedance bound needs no staging.
	small := spec.MaxStepA(0.10) / 2
	ramp, err = spec.MinSafeRampS(small, 0.10)
	if err != nil || ramp != 0 {
		t.Fatalf("in-budget step should need no staging (%g, %v)", ramp, err)
	}
}

func TestTransientErrors(t *testing.T) {
	spec := DefaultTransientSpec(itrs.MustNode(35))
	if _, err := spec.Step(0, 1e-9); err == nil {
		t.Fatalf("zero step must error")
	}
	if _, err := spec.Step(10, 0); err == nil {
		t.Fatalf("zero ramp must error")
	}
	if _, err := spec.MinSafeRampS(0, 0.1); err == nil {
		t.Fatalf("zero step must error")
	}
}
