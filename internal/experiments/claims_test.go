package experiments

import (
	"reflect"
	"testing"

	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/resize"
)

// --- C1: dynamic thermal management -------------------------------------------

func TestClaimDTM(t *testing.T) {
	r, err := DTM(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	// The effective worst case lands near the paper's 75 %.
	if r.EffectiveFraction < 0.65 || r.EffectiveFraction > 0.85 {
		t.Fatalf("effective worst case = %.0f%% of theoretical, paper says ≈75%%", r.EffectiveFraction*100)
	}
	// θja headroom near the paper's 33 %.
	if r.ThetaJAHeadroom < 0.2 || r.ThetaJAHeadroom > 0.5 {
		t.Fatalf("θja headroom = %.0f%%, paper says 33%%", r.ThetaJAHeadroom*100)
	}
	// Cheaper cooling, materially.
	if r.CostRatio < 1.5 {
		t.Fatalf("cooling cost ratio = %.1f, expected a substantial saving", r.CostRatio)
	}
	// The DTM-sized package survives the power virus within the junction
	// limit at graceful throughput.
	node := itrs.MustNode(50)
	if r.VirusPeakTempC > node.JunctionTempC+0.5 {
		t.Fatalf("virus peak %.1f °C exceeds the %g °C limit", r.VirusPeakTempC, node.JunctionTempC)
	}
	if r.VirusThroughput < 0.5 || r.VirusThroughput >= 1 {
		t.Fatalf("virus throughput = %.2f, expected graceful degradation", r.VirusThroughput)
	}
	// The 65→75 W cost step is ≈3×.
	if r.Intel65to75 < 2 || r.Intel65to75 > 4 {
		t.Fatalf("65→75 W cost step = %.1f×, paper says ~3×", r.Intel65to75)
	}
}

// --- C2: global signaling ------------------------------------------------------

func TestClaimSignaling(t *testing.T) {
	rows, err := Signaling(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[int]SignalingRow{}
	for _, r := range rows {
		byNode[r.NodeNM] = r
	}
	// Census anchors.
	if r := byNode[180]; r.Repeaters < 5e3 || r.Repeaters > 8e4 {
		t.Fatalf("180 nm repeaters = %d, paper says ~10⁴", r.Repeaters)
	}
	if r := byNode[50]; r.Repeaters < 3e5 || r.Repeaters > 5e6 {
		t.Fatalf("50 nm repeaters = %d, paper says ~10⁶", r.Repeaters)
	}
	if byNode[50].SignalingPowerW < 50 {
		t.Fatalf("50 nm signaling power = %.0f W, paper says >50 W", byNode[50].SignalingPowerW)
	}
	if byNode[50].ClusterDensityWPerCm2 < 100 {
		t.Fatalf("50 nm repeater-cluster density = %.0f W/cm², footnote 2 says it can exceed 100",
			byNode[50].ClusterDensityWPerCm2)
	}
	for _, r := range rows {
		// Differential low swing at 10 % cuts energy to ≈20 % and slashes
		// di/dt; it costs under 2× the routing and closes noise.
		if r.DiffEnergyRatio < 0.15 || r.DiffEnergyRatio > 0.35 {
			t.Errorf("%d nm: diff energy ratio %.2f out of band", r.NodeNM, r.DiffEnergyRatio)
		}
		if r.DiffTrackRatio >= 2 {
			t.Errorf("%d nm: track ratio %.2f must stay below 2", r.NodeNM, r.DiffTrackRatio)
		}
		if r.PeakCurrentRatio > 0.2 {
			t.Errorf("%d nm: di/dt relief too weak (%.3f)", r.NodeNM, r.PeakCurrentRatio)
		}
		if r.DiffSNR <= 1 {
			t.Errorf("%d nm: differential link must close noise (SNR %.2f)", r.NodeNM, r.DiffSNR)
		}
		if r.DiffPowerW >= r.SignalingPowerW {
			t.Errorf("%d nm: low-swing fabric must use less power", r.NodeNM)
		}
	}
	// Global crossings become multi-cycle in the nanometer regime.
	if byNode[50].CyclesPerCrossing < 2 {
		t.Fatalf("50 nm cross-chip = %.1f cycles, the paper's premise is multi-cycle", byNode[50].CyclesPerCrossing)
	}
	if byNode[180].CyclesPerCrossing >= byNode[50].CyclesPerCrossing {
		t.Fatalf("cycle count must grow with scaling")
	}
	// The [9] premise: unscaled top-level wiring keeps the die reachable in
	// a few cycles at ITRS clocks while scaled wiring collapses.
	for _, r := range rows {
		if r.UnscaledCycles > r.ScaledCycles+1e-9 {
			t.Errorf("%d nm: unscaled wiring must not be slower", r.NodeNM)
		}
	}
	if byNode[35].UnscaledCycles > 4 {
		t.Fatalf("35 nm: unscaled wiring should cross the die in a few cycles, got %.1f", byNode[35].UnscaledCycles)
	}
	if byNode[35].ScaledCycles < 3*byNode[35].UnscaledCycles {
		t.Fatalf("35 nm: scaled wiring should be far slower (%.1f vs %.1f cycles)",
			byNode[35].ScaledCycles, byNode[35].UnscaledCycles)
	}
}

// --- C3: library optimization ---------------------------------------------------

func TestClaimLibrary(t *testing.T) {
	r, err := RunLibrary(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 3 {
		t.Fatalf("want coarse/rich/continuous")
	}
	for _, res := range r.Results {
		if !res.TimingMet {
			t.Fatalf("%s violates timing", res.Library.Name)
		}
	}
	// On-the-fly cells vs the coarse legacy library: a large saving
	// (the [15] overdrive-waste argument).
	if r.ContinuousVsCoarse < 0.15 {
		t.Fatalf("continuous vs coarse = %.0f%%, want ≥15%%", r.ContinuousVsCoarse*100)
	}
	// And a meaningful saving even over the rich library (the [17] claim
	// band is 15-22 %; our netlists land lower but must be positive).
	if r.ContinuousVsRich <= 0.02 {
		t.Fatalf("continuous vs rich = %.1f%%, expected a positive saving", r.ContinuousVsRich*100)
	}
}

// --- C4: clustered voltage scaling ----------------------------------------------

func TestClaimCVS(t *testing.T) {
	r, err := RunCVS(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	// The slack-distribution premise: over half the paths below half the
	// cycle.
	if r.PathUtilization < 0.5 {
		t.Fatalf("path utilization = %.0f%%, paper premise is >50%%", r.PathUtilization*100)
	}
	c := r.Clustered
	if !c.TimingMet {
		t.Fatalf("clustered CVS violates timing")
	}
	if c.AssignedFraction < 0.6 || c.AssignedFraction > 0.95 {
		t.Fatalf("assigned fraction = %.0f%%, paper says ~75%%", c.AssignedFraction*100)
	}
	if c.DynamicSaving < 0.25 {
		t.Fatalf("dynamic saving = %.0f%%, paper says 45-50%%", c.DynamicSaving*100)
	}
	if c.LCOverheadFraction < 0.03 || c.LCOverheadFraction > 0.15 {
		t.Fatalf("LC overhead = %.1f%%, paper says 8-10%%", c.LCOverheadFraction*100)
	}
	if c.AreaOverhead < 0.05 || c.AreaOverhead > 0.35 {
		t.Fatalf("area overhead = %.0f%%, paper says ~15%%", c.AreaOverhead*100)
	}
	// Ablation: unclustered assigns at least as many gates but pays more
	// converters.
	if r.Unclustered.AssignedFraction < c.AssignedFraction {
		t.Fatalf("unclustered fraction must not be lower")
	}
	if r.Unclustered.LevelConverters <= c.LevelConverters {
		t.Fatalf("clustering must reduce converter count")
	}
}

// --- C5: dual-Vth ----------------------------------------------------------------

func TestClaimDualVth(t *testing.T) {
	r, err := RunDualVth(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	s := r.Sensitivity
	if !s.TimingMet {
		t.Fatalf("dual-Vth violates timing")
	}
	if s.LeakageSaving < 0.4 || s.LeakageSaving > 0.95 {
		t.Fatalf("leakage saving = %.0f%%, paper band is 40-80%%", s.LeakageSaving*100)
	}
	if s.DelayPenalty > 0.02 {
		t.Fatalf("delay penalty = %.1f%%, paper says minimal", s.DelayPenalty*100)
	}
	if r.SlackOrdered.LeakageSaving < 0.3 {
		t.Fatalf("the slack-ordered ablation should still work")
	}
}

// --- C6: resize vs multi-Vdd ------------------------------------------------------

func TestClaimResizeVsVdd(t *testing.T) {
	r, err := RunResizeVsVdd(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	// The §3.3 argument: re-sizing returns sublinear power.
	if r.Resize.Sublinearity >= 0.9 {
		t.Fatalf("resize sublinearity = %.2f, must be well below 1", r.Resize.Sublinearity)
	}
	// The combined flow beats both single techniques.
	if r.Combined.TotalSaving <= r.Resize.PowerSaving {
		t.Fatalf("combined (%.2f) must beat resize alone (%.2f)",
			r.Combined.TotalSaving, r.Resize.PowerSaving)
	}
	if !r.Combined.TimingMet {
		t.Fatalf("combined flow violates timing")
	}
	// The ordering warning: re-sizing first starves CVS.
	if r.AssignedAfterResize >= r.CVSOnSame.AssignedFraction {
		t.Fatalf("resize-then-CVS (%.0f%%) must reach fewer gates than CVS-first (%.0f%%)",
			r.AssignedAfterResize*100, r.CVSOnSame.AssignedFraction*100)
	}
}

// RunResizeVsVdd's resize-then-CVS leg continues on the circuit its resize
// leg already downsized. That is sound only while Downsize is
// deterministic: two runs on clones of one circuit must leave the same
// gates and the same Result, and CVS on a second downsizing must assign
// what the shared circuit reports.
func TestResizeDownsizeDeterministic(t *testing.T) {
	base, err := buildCircuit(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	a, b := base.Clone(), base.Clone()
	ra, err := resize.Downsize(a, resize.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := resize.Downsize(b, resize.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Gates, b.Gates) {
		t.Fatalf("two downsizing runs left different gates")
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("two downsizing runs differ: %+v vs %+v", ra, rb)
	}
	afterCVS, err := cvs.Assign(b, cvs.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunResizeVsVdd(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	if r.AssignedAfterResize != afterCVS.AssignedFraction {
		t.Fatalf("resize-then-CVS assigned %v, a fresh downsizing then CVS assigns %v",
			r.AssignedAfterResize, afterCVS.AssignedFraction)
	}
}

// --- C7: the Vdd floor -------------------------------------------------------------

func TestClaimVddFloor(t *testing.T) {
	r, err := RunVddFloor(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if r.Vdd < 0.40 || r.Vdd > 0.48 {
		t.Fatalf("Vdd floor = %.2f V, paper says ≈0.44 V", r.Vdd)
	}
	if r.Savings < 0.40 || r.Savings > 0.52 {
		t.Fatalf("dynamic saving = %.0f%%, paper says 46%%", r.Savings*100)
	}
	// The 0.2 V headline point.
	if r.At02V.DelayNorm > 1.6 {
		t.Fatalf("0.2 V delay = %.2f×, paper says <1.3×", r.At02V.DelayNorm)
	}
	if r.At02V.PdynNorm > 0.12 {
		t.Fatalf("0.2 V dynamic power = %.0f%% of nominal, paper says 11%%", r.At02V.PdynNorm*100)
	}
}

// --- C8: bump plans -----------------------------------------------------------------

func TestClaimBumps(t *testing.T) {
	r, err := RunBumps(device.BaseLab(), DefaultMeshN)
	if err != nil {
		t.Fatal(err)
	}
	// The 356 µm effective pitch is reproduced exactly from the pad plan.
	if r.EffectivePitchM < 340e-6 || r.EffectivePitchM > 375e-6 {
		t.Fatalf("effective pitch = %.0f µm, paper says 356 µm", r.EffectivePitchM*1e6)
	}
	if r.MinPitchM != 80e-6 {
		t.Fatalf("min pitch = %g, paper says 80 µm", r.MinPitchM)
	}
	if r.ITRSWidthOverMin < 30*r.MinWidthOverMin {
		t.Fatalf("the ITRS plan (%.0f×) must dwarf the min-pitch plan (%.0f×)",
			r.ITRSWidthOverMin, r.MinWidthOverMin)
	}
	// The bump-current incompatibility.
	if r.Current.Compatible {
		t.Fatalf("the paper's point: the 35 nm bump plan cannot carry the supply current")
	}
	if r.Current.RequiredBumps <= r.Current.VddBumps {
		t.Fatalf("more Vdd bumps must be required")
	}
	// Numerical cross-checks.
	if r.LadderRatio < 0.97 || r.LadderRatio > 1.03 {
		t.Fatalf("ladder validation = %.3f, want ≈1", r.LadderRatio)
	}
	if r.PessimisticRatio < 1.5 {
		t.Fatalf("the all-top-metal mesh bound should exceed the budget")
	}
}

// --- C9: transients and MCML ---------------------------------------------------------

func TestClaimTransients(t *testing.T) {
	r, err := RunTransients(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	// MTCMOS block behaviour.
	if r.BlockStandbySavings < 0.95 {
		t.Fatalf("MTCMOS standby savings = %.1f%%, expected near-elimination", r.BlockStandbySavings*100)
	}
	if r.BlockDelayPenalty > 0.05 {
		t.Fatalf("MTCMOS delay penalty = %.1f%%, expected small", r.BlockDelayPenalty*100)
	}
	// The §4 close: the minimum bump pitch provides the low-inductance
	// path; the ITRS plan droops far more on the same wakeup.
	if r.NoiseITRS.NoiseFraction <= r.NoiseMinPitch.NoiseFraction {
		t.Fatalf("the ITRS plan must droop more (%.1f%% vs %.1f%%)",
			r.NoiseITRS.NoiseFraction*100, r.NoiseMinPitch.NoiseFraction*100)
	}
	if r.NoiseMinPitch.NoiseFraction > 0.10 {
		t.Fatalf("min-pitch droop = %.1f%%, should stay within the 10%% budget", r.NoiseMinPitch.NoiseFraction*100)
	}
	if r.NoiseITRS.NoiseFraction < 0.10 {
		t.Fatalf("ITRS-plan droop = %.1f%%, should exceed the 10%% budget", r.NoiseITRS.NoiseFraction*100)
	}
	if r.MaxInstantStepMinA <= r.MaxInstantStepITRSA {
		t.Fatalf("the min-pitch plan must tolerate larger steps")
	}
	// MCML: tiny supply ripple; crossover exists.
	if r.MCML.CurrentRippleRatio > 0.1 {
		t.Fatalf("MCML di/dt ratio = %.3f, expected ≪ 1", r.MCML.CurrentRippleRatio)
	}
	if r.MCML.CrossoverActivity <= 0 {
		t.Fatalf("MCML crossover must be positive")
	}
}
