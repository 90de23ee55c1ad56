package experiments

import (
	"fmt"

	"nanometer/internal/core"
	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/mathx"
	"nanometer/internal/powergrid"
	"nanometer/internal/report"
	"nanometer/internal/units"
)

// Figure1Case identifies one curve of Figure 1.
type Figure1Case struct {
	NodeNM int
	Vdd    float64
}

// Figure1Cases returns the paper's three curves: 70 nm @0.9 V, 50 nm @0.7 V,
// 50 nm @0.6 V.
func Figure1Cases() []Figure1Case {
	return []Figure1Case{{70, 0.9}, {50, 0.7}, {50, 0.6}}
}

// Figure1 reproduces the Pstatic/Pdynamic ratio of a fan-out-of-4 inverter
// with average wiring load at 85 °C, swept over switching activity. The
// threshold at each (node, Vdd) point is the Table 2 solution (Ion target
// met at that supply), as in the paper's §3.1 setup.
func Figure1(lab *device.Lab, activities []float64) (*report.Figure, error) {
	if len(activities) == 0 {
		activities = mathx.Logspace(0.005, 0.5, 25)
	}
	T := units.CelsiusToKelvin(85)
	fig := &report.Figure{
		Title:  "Figure 1. Pstatic/Pdynamic for an FO4 inverter with average wiring load (85 °C)",
		XLabel: "switching activity factor",
		YLabel: "Pstatic / Pdynamic",
		LogX:   true, LogY: true,
	}
	for _, cs := range Figure1Cases() {
		inv, err := gate.ReferenceInverterIn(lab, cs.NodeNM)
		if err != nil {
			return nil, err
		}
		node := lab.MustNode(cs.NodeNM)
		// Threshold re-solved for the case's supply (300 K convention).
		vth, err := inv.N.SolveVthForIon(node.IonTargetAPerM, cs.Vdd, units.RoomTemperature)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure1 %dnm@%gV: %w", cs.NodeNM, cs.Vdd, err)
		}
		g := inv.WithVth(vth)
		s := &report.Series{Name: fmt.Sprintf("%dnm, Vdd=%.1fV", cs.NodeNM, cs.Vdd)}
		for _, a := range activities {
			s.Add(a, g.StaticOverDynamic(a, node.ClockHz, cs.Vdd, T))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure2Row is one node of the dual-Vth scaling analysis.
type Figure2Row struct {
	NodeNM int
	// IonGainPct is the drive-current increase from a 100 mV threshold
	// reduction.
	IonGainPct float64
	// IoffX100mV is the off-current multiplier of that reduction
	// (≈15× throughout, set by the subthreshold swing).
	IoffX100mV float64
	// IoffXFor20PctIon is the off-current multiplier required for a 20 %
	// drive gain (the paper: 54× "today" falling to 7× at 35 nm).
	IoffXFor20PctIon float64
	// DeltaVthFor20Pct is the corresponding threshold reduction (V).
	DeltaVthFor20Pct float64
}

// Figure2 reproduces the dual-Vth scaling figure.
func Figure2(lab *device.Lab) ([]Figure2Row, error) {
	var rows []Figure2Row
	T := units.RoomTemperature
	for _, nm := range lab.NodesNM() {
		d, err := lab.ForNode(nm)
		if err != nil {
			return nil, err
		}
		node := lab.MustNode(nm)
		ionHigh := d.IonPerWidth(node.Vdd, T)
		low := d.WithVth(d.Vth0 - 0.1)
		gain := low.IonPerWidth(node.Vdd, T)/ionHigh - 1
		ioffX := low.IoffPerWidth(node.Vdd, T) / d.IoffPerWidth(node.Vdd, T)
		vth20, err := d.SolveVthForIon(1.2*ionHigh, node.Vdd, T)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure2 node %d: %w", nm, err)
		}
		ioffX20 := d.WithVth(vth20).IoffPerWidth(node.Vdd, T) / d.IoffPerWidth(node.Vdd, T)
		rows = append(rows, Figure2Row{
			NodeNM:           nm,
			IonGainPct:       gain * 100,
			IoffX100mV:       ioffX,
			IoffXFor20PctIon: ioffX20,
			DeltaVthFor20Pct: d.Vth0 - vth20,
		})
	}
	return rows, nil
}

// Figure2Figure converts the rows to plotting series.
func Figure2Figure(rows []Figure2Row) *report.Figure {
	gainS := &report.Series{Name: "Ion increase with 100 mV Vth reduction (%)"}
	penS := &report.Series{Name: "Ioff increase for +20% Ion (×, log)"}
	for _, r := range rows {
		gainS.Add(float64(r.NodeNM), r.IonGainPct)
		penS.Add(float64(r.NodeNM), r.IoffXFor20PctIon)
	}
	return &report.Figure{
		Title:  "Figure 2. Dual-Vth scaling: drive gain and leakage penalty vs node",
		XLabel: "technology node (nm)",
		YLabel: "see series",
		Series: []*report.Series{gainS, penS},
	}
}

// Figure3And4 evaluates the Vth-scaling policies at 35 nm across supplies:
// normalized delay (Figure 3) and Pdynamic/Pstatic at activity 0.1
// (Figure 4).
func Figure3And4(lab *device.Lab, vdds []float64) (fig3, fig4 *report.Figure, err error) {
	if len(vdds) == 0 {
		vdds = mathx.Linspace(0.2, 0.6, 17)
	}
	node := lab.MustNode(35)
	ex, err := core.NewExplorerIn(lab, 35, units.RoomTemperature, 0.1, node.ClockHz)
	if err != nil {
		return nil, nil, err
	}
	fig3 = &report.Figure{
		Title:  "Figure 3. Delay vs Vdd under Vth-scaling policies (35 nm, nominal Vdd = 0.6 V)",
		XLabel: "Vdd (V)", YLabel: "delay (normalized)",
	}
	fig4 = &report.Figure{
		Title:  "Figure 4. Pdynamic/Pstatic vs Vdd (35 nm, switching activity 0.1)",
		XLabel: "Vdd (V)", YLabel: "Pdynamic / Pstatic", LogY: true,
	}
	for _, p := range core.Policies() {
		ops, err := ex.Sweep(p, vdds)
		if err != nil {
			return nil, nil, err
		}
		s3 := &report.Series{Name: p.String()}
		s4 := &report.Series{Name: p.String()}
		for _, op := range ops {
			s3.Add(op.Vdd, op.DelayNorm)
			s4.Add(op.Vdd, op.DynOverStatic)
		}
		fig3.Series = append(fig3.Series, s3)
		fig4.Series = append(fig4.Series, s4)
	}
	return fig3, fig4, nil
}

// Figure5Row is one node of the IR-drop scaling analysis, under both bump
// plans.
type Figure5Row struct {
	NodeNM int
	// MinPitch and ITRSPitch are the two bump plans (m).
	MinPitchM, ITRSPitchM float64
	// WidthOverMin are the required rail widths normalized to minimum
	// top-metal width under each plan (Figure 5's left axis).
	MinWidthOverMin, ITRSWidthOverMin float64
	// RoutingFraction are the total top-level routing shares (right axis).
	MinRoutingFraction, ITRSRoutingFraction float64
}

// Figure5 reproduces the power-distribution scaling analysis.
func Figure5(lab *device.Lab) ([]Figure5Row, error) {
	var rows []Figure5Row
	for _, nm := range lab.NodesNM() {
		node := lab.MustNode(nm)
		minSpec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
		itrsSpec := powergrid.DefaultSpec(node, node.EffectiveBumpPitchM())
		szMin, err := minSpec.SizeRails()
		if err != nil {
			return nil, err
		}
		szITRS, err := itrsSpec.SizeRails()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure5Row{
			NodeNM:              nm,
			MinPitchM:           node.BumpPitchMinM,
			ITRSPitchM:          node.EffectiveBumpPitchM(),
			MinWidthOverMin:     szMin.WidthOverMin,
			ITRSWidthOverMin:    szITRS.WidthOverMin,
			MinRoutingFraction:  szMin.TotalRoutingFraction,
			ITRSRoutingFraction: szITRS.TotalRoutingFraction,
		})
	}
	return rows, nil
}

// Figure5Figure converts the rows to plotting series.
func Figure5Figure(rows []Figure5Row) *report.Figure {
	minW := &report.Series{Name: "min bump pitch: rail width / Wmin"}
	itrsW := &report.Series{Name: "ITRS bump count: rail width / Wmin"}
	minR := &report.Series{Name: "min pitch: % routing used"}
	for _, r := range rows {
		minW.Add(float64(r.NodeNM), r.MinWidthOverMin)
		itrsW.Add(float64(r.NodeNM), r.ITRSWidthOverMin)
		minR.Add(float64(r.NodeNM), r.MinRoutingFraction*100)
	}
	return &report.Figure{
		Title:  "Figure 5. IR-drop scaling: required rail width and routing resources",
		XLabel: "technology node (nm)",
		YLabel: "rail width / Wmin (log) ; % routing",
		LogY:   true,
		Series: []*report.Series{minW, itrsW, minR},
	}
}
