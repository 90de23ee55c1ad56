// Integration tests: every reproduced table, figure, and claim must hold the
// paper's qualitative shape (orderings, approximate factors, crossover
// locations). EXPERIMENTS.md records the quantitative comparison.
package experiments

import (
	"math"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
)

// --- Table 1 -----------------------------------------------------------------

func TestTable1Shape(t *testing.T) {
	rows := Table1(device.BaseLab())
	if len(rows) != 9 {
		t.Fatalf("Table 1 has %d rows, want 6 published + 3 ITRS", len(rows))
	}
	for _, r := range rows {
		if r.IsITRS {
			continue
		}
		if r.MeetsSub1V {
			t.Errorf("%s: the paper's take-away is that no sub-1 V device meets the Ion target", r.Ref)
		}
	}
	// The two 70 nm-class devices reported at 1.2 V carry the +78 % flag.
	flagged := 0
	for _, r := range rows {
		if r.PowerPenalty > 0.7 && r.PowerPenalty < 0.85 {
			flagged++
		}
	}
	if flagged != 2 {
		t.Fatalf("expected 2 devices with the +78%% dynamic-power penalty, got %d", flagged)
	}
	if Table1Report(device.BaseLab()) == nil {
		t.Fatalf("report rendering failed")
	}
}

// --- Table 2 -----------------------------------------------------------------

func TestTable2AgainstPaper(t *testing.T) {
	rows, err := Table2(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table 2 has %d rows, want 6 nodes + the 0.7 V variant", len(rows))
	}
	for _, r := range rows {
		if r.PaperVth == 0 {
			t.Fatalf("%d nm @%g V: missing paper anchor", r.NodeNM, r.Vdd)
		}
		tolVth := 0.005
		tolIoff := 1.6 // ×
		if r.Vdd != itrs.MustNode(r.NodeNM).Vdd {
			// The 0.7 V row is a pure prediction (not a calibration
			// anchor); allow a wider band.
			tolVth, tolIoff = 0.04, 2.5
		}
		if math.Abs(r.VthRequired-r.PaperVth) > tolVth {
			t.Errorf("%d nm @%g V: Vth %.3f vs paper %.2f", r.NodeNM, r.Vdd, r.VthRequired, r.PaperVth)
		}
		ratio := r.IoffNAPerUM / r.PaperIoff
		if ratio > tolIoff || ratio < 1/tolIoff {
			t.Errorf("%d nm @%g V: Ioff %.0f vs paper %.0f (×%.2f)", r.NodeNM, r.Vdd, r.IoffNAPerUM, r.PaperIoff, ratio)
		}
		if r.IoffMetalGateNAPerUM >= r.IoffNAPerUM {
			t.Errorf("%d nm: metal gate must reduce Ioff", r.NodeNM)
		}
	}
	// The roadmap-wide Ioff growth: paper reports 152× (vs ITRS 23×).
	growth := rows[len(rows)-1].IoffNAPerUM / rows[0].IoffNAPerUM
	if growth < 100 || growth > 260 {
		t.Errorf("Ioff growth across the roadmap = %.0f×, paper says 152×", growth)
	}
	// Coxe normalization grows but much more slowly than physical Cox.
	last := rows[len(rows)-1]
	if last.CoxeNorm >= last.CoxPhysNorm {
		t.Errorf("electrical capacitance (%g) must lag physical (%g) — the paper's point 1",
			last.CoxeNorm, last.CoxPhysNorm)
	}
	// Model Ioff exceeds the ITRS projection at the nanometer nodes
	// ("additional static power reduction required by circuit design").
	if last.IoffNAPerUM < 2*last.ITRSIoffNAPerUM {
		t.Errorf("35 nm model Ioff %.0f should exceed the ITRS %.0f by ~3×",
			last.IoffNAPerUM, last.ITRSIoffNAPerUM)
	}
	if _, err := Table2Report(device.BaseLab()); err != nil {
		t.Fatal(err)
	}
}

// --- Figure 1 ----------------------------------------------------------------

func TestFigure1Shape(t *testing.T) {
	fig, err := Figure1(device.BaseLab(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("Figure 1 needs 3 curves")
	}
	for _, s := range fig.Series {
		// Log-log slope −1: ratio × activity is constant.
		c0 := s.Y[0] * s.X[0]
		for i := range s.X {
			if !approx(s.Y[i]*s.X[i], c0, 1e-6) {
				t.Fatalf("%s: Pstatic/Pdyn must scale as 1/activity", s.Name)
			}
		}
	}
	// Curve ordering at fixed activity: the 0.6 V 50 nm case dominates
	// everything (its Vth is 40 mV), and sits ~an order of magnitude up.
	y70 := fig.Series[0].Y[0]
	y50at07 := fig.Series[1].Y[0]
	y50at06 := fig.Series[2].Y[0]
	if !(y50at06 > y50at07 && y50at06 > y70) {
		t.Fatalf("50 nm @0.6 V must be the worst static/dynamic ratio: %g, %g, %g", y70, y50at07, y50at06)
	}
	if y50at06 < 5*y50at07 {
		t.Fatalf("dropping 0.7→0.6 V must explode the ratio (paper: ~7× Ioff)")
	}
	// The §3.1 headline: for activities of 0.01–0.1, static power can
	// approach and exceed 10 % of dynamic. Evaluate the 0.6 V curve at
	// α = 0.05 via its 1/α law.
	s06 := fig.Series[2]
	mid := s06.Y[0] * s06.X[0] / 0.05
	if mid < 0.1 {
		t.Fatalf("50 nm @0.6 V at α=0.05: Pstatic/Pdyn = %g, paper says it exceeds 10%%", mid)
	}
}

// --- Figure 2 ----------------------------------------------------------------

func TestFigure2Shape(t *testing.T) {
	rows, err := Figure2(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Figure 2 needs all 6 nodes")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].IonGainPct <= rows[i-1].IonGainPct {
			t.Fatalf("Ion gain per 100 mV must grow with scaling")
		}
		if rows[i].IoffXFor20PctIon >= rows[i-1].IoffXFor20PctIon {
			t.Fatalf("the Ioff penalty for +20%% Ion must shrink with scaling")
		}
	}
	// 100 mV always costs ≈15× Ioff (Eq. 4 with 85 mV/decade).
	for _, r := range rows {
		if !approx(r.IoffX100mV, math.Pow(10, 0.1/0.085), 1e-3) {
			t.Fatalf("%d nm: 100 mV Ioff multiplier = %g, want ≈15", r.NodeNM, r.IoffX100mV)
		}
	}
	// At 35 nm the penalty approaches the paper's 7×.
	last := rows[len(rows)-1]
	if last.NodeNM != 35 || last.IoffXFor20PctIon > 20 {
		t.Fatalf("35 nm penalty = %.1f×, paper says 7×", last.IoffXFor20PctIon)
	}
	if Figure2Figure(rows) == nil {
		t.Fatalf("figure conversion failed")
	}
}

// --- Figures 3 and 4 ---------------------------------------------------------

func TestFigure3And4Shape(t *testing.T) {
	fig3, fig4, err := Figure3And4(device.BaseLab(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Series) != 3 || len(fig4.Series) != 3 {
		t.Fatalf("three policies expected")
	}
	// Figure 3 at the lowest supply: constant Vth ≥ conservative ≥
	// constant-Pstatic, with the paper's approximate magnitudes.
	dConst := fig3.Series[0].Y[0]
	dPs := fig3.Series[1].Y[0]
	dCons := fig3.Series[2].Y[0]
	if !(dConst > dCons && dCons > dPs) {
		t.Fatalf("delay ordering broken: %g, %g, %g", dConst, dPs, dCons)
	}
	if dConst < 2.3 || dConst > 5.5 {
		t.Fatalf("constant-Vth delay at 0.2 V = %g×, paper says 3.7×", dConst)
	}
	if dPs > 1.6 {
		t.Fatalf("constant-Pstatic delay at 0.2 V = %g×, paper says <1.3×", dPs)
	}
	// Figure 4: the constant-Pstatic ratio falls quadratically toward ~1-2
	// at 0.2 V while constant-Vth stays flat.
	rPs02 := fig4.Series[1].Y[0]
	rPs06 := fig4.Series[1].Y[len(fig4.Series[1].Y)-1]
	if rPs02 > 3 {
		t.Fatalf("constant-Pstatic Pdyn/Pstatic at 0.2 V = %g, paper shows ≈1-2", rPs02)
	}
	if !approx(rPs06/rPs02, 9, 0.15) {
		t.Fatalf("constant-Pstatic ratio must fall ~9× from 0.6 to 0.2 V, got %g", rPs06/rPs02)
	}
	rConst02 := fig4.Series[0].Y[0]
	if rConst02 < 0.5*rPs06 {
		t.Fatalf("constant-Vth ratio should stay roughly flat (DIBL cancellation), got %g vs %g", rConst02, rPs06)
	}
}

// --- Figure 5 ----------------------------------------------------------------

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Figure 5 needs all 6 nodes")
	}
	for _, r := range rows {
		if r.ITRSWidthOverMin <= r.MinWidthOverMin {
			t.Fatalf("%d nm: the ITRS bump plan must always be worse", r.NodeNM)
		}
	}
	// Paper anchors at 35 nm.
	last := rows[len(rows)-1]
	if last.NodeNM != 35 {
		t.Fatalf("rows must end at 35 nm")
	}
	if last.MinWidthOverMin < 8 || last.MinWidthOverMin > 25 {
		t.Fatalf("35 nm min-pitch width = %.1f×, paper says 16×", last.MinWidthOverMin)
	}
	if last.ITRSWidthOverMin < 500 {
		t.Fatalf("35 nm ITRS width = %.0f×, paper says >2000× (same order)", last.ITRSWidthOverMin)
	}
	if last.MinRoutingFraction < 0.16 || last.MinRoutingFraction > 0.22 {
		t.Fatalf("35 nm routing share = %.3f, paper says 17-20%%", last.MinRoutingFraction)
	}
	// 50 nm is more restricted than 35 nm (the power-density dip).
	var r50, r35 Figure5Row
	for _, r := range rows {
		if r.NodeNM == 50 {
			r50 = r
		}
		if r.NodeNM == 35 {
			r35 = r
		}
	}
	if r50.MinWidthOverMin <= r35.MinWidthOverMin {
		t.Fatalf("50 nm (%.1f) should be more restricted than 35 nm (%.1f)",
			r50.MinWidthOverMin, r35.MinWidthOverMin)
	}
	if Figure5Figure(rows) == nil {
		t.Fatalf("figure conversion failed")
	}
}

func approx(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}
