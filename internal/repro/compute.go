package repro

import (
	"fmt"

	"nanometer/internal/experiments"
	"nanometer/internal/report"
	"nanometer/internal/result"
	"nanometer/internal/signaling"
)

// Every compute function resolves the options' roadmap through opts.lab()
// and hands it to the experiments' In-variants: the roadmap is a threaded
// value, not an ambient global, and the nil scenario resolves to the base
// laboratory these functions always used.

// This file is the compute layer: one function per artifact, mapping the
// experiment outputs into typed results (internal/result). No formatting
// decisions beyond table-cell significant digits live here — prose, plots,
// CSV dialects, and paper-check presentation belong to internal/render.

// fromReportTable adapts the experiment packages' table type (they predate
// the compute/encode split) into the typed schema.
func fromReportTable(t *report.Table) *result.Table {
	return &result.Table{Title: t.Title, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes}
}

// fromReportFigure adapts a report figure, attaching the stable CSV name.
func fromReportFigure(name string, f *report.Figure) *result.Figure {
	rf := &result.Figure{Name: name, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, LogX: f.LogX, LogY: f.LogY}
	for _, s := range f.Series {
		rf.Series = append(rf.Series, result.Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	return rf
}

func tableResult(t *result.Table) *result.Result {
	res := &result.Result{}
	res.AddTable(t)
	return res
}

func claimResult(c *result.Claim) *result.Result {
	res := &result.Result{}
	res.AddClaim(c)
	return res
}

// --- Tables -------------------------------------------------------------------

func computeTable1(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	return tableResult(fromReportTable(experiments.Table1Report(lab))), nil
}

func computeTable2(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	t, err := experiments.Table2Report(lab)
	if err != nil {
		return nil, err
	}
	return tableResult(fromReportTable(t)), nil
}

// --- Figures ------------------------------------------------------------------

func computeFigure1(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	fig, err := experiments.Figure1(lab, nil)
	if err != nil {
		return nil, err
	}
	res := &result.Result{}
	res.AddFigure(fromReportFigure("figure1", fig))
	return res, nil
}

func computeFigure2(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	rows, err := experiments.Figure2(lab)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title:   "Figure 2 (as data). Dual-Vth scaling",
		Headers: []string{"node (nm)", "Ion gain @ -100mV Vth", "Ioff × @ -100mV", "Ioff × for +20% Ion", "ΔVth for +20% (mV)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.NodeNM),
			fmt.Sprintf("%.1f%%", r.IonGainPct),
			fmt.Sprintf("%.1f", r.IoffX100mV),
			fmt.Sprintf("%.1f", r.IoffXFor20PctIon),
			fmt.Sprintf("%.0f", r.DeltaVthFor20Pct*1e3))
	}
	t.Notes = append(t.Notes, "paper: Ioff penalty for +20% Ion falls from 54× \"today\" to 7× at 35 nm; 100 mV ⇒ ~15× Ioff throughout")
	res := &result.Result{}
	res.AddTable(t)
	res.AddFigure(fromReportFigure("figure2", experiments.Figure2Figure(rows)))
	return res, nil
}

// Figures 3 and 4 share one supply sweep; as independent artifacts each
// re-runs the sweep (cheap) so neither depends on the other's completion.

func computeFigure3(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	fig3, _, err := experiments.Figure3And4(lab, nil)
	if err != nil {
		return nil, err
	}
	res := &result.Result{}
	res.AddFigure(fromReportFigure("figure3", fig3))
	return res, nil
}

func computeFigure4(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	_, fig4, err := experiments.Figure3And4(lab, nil)
	if err != nil {
		return nil, err
	}
	res := &result.Result{}
	res.AddFigure(fromReportFigure("figure4", fig4))
	return res, nil
}

func computeFigure5(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	rows, err := experiments.Figure5(lab)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title:   "Figure 5 (as data). IR-drop scaling",
		Headers: []string{"node (nm)", "min pitch (µm)", "W/Wmin", "%routing", "ITRS pitch (µm)", "W/Wmin", "%routing"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.NodeNM),
			fmt.Sprintf("%.0f", r.MinPitchM*1e6),
			fmt.Sprintf("%.1f", r.MinWidthOverMin),
			fmt.Sprintf("%.1f%%", r.MinRoutingFraction*100),
			fmt.Sprintf("%.0f", r.ITRSPitchM*1e6),
			fmt.Sprintf("%.0f", r.ITRSWidthOverMin),
			fmt.Sprintf("%.1f%%", r.ITRSRoutingFraction*100))
	}
	t.Notes = append(t.Notes, "paper: 16× Wmin (<4% routing + 16% pads) at 35 nm minimum pitch; >2000× under ITRS bump counts")
	res := &result.Result{}
	res.AddTable(t)
	res.AddFigure(fromReportFigure("figure5", experiments.Figure5Figure(rows)))
	return res, nil
}

// --- Claims -------------------------------------------------------------------

func computeC1(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.DTM(lab, 50)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("node_nm", float64(r.NodeNM), "nm").
		Num("theoretical_worst_w", r.TheoreticalWorstW, "W").
		Num("effective_worst_w", r.EffectiveWorstW, "W").
		Checked("effective_fraction", r.EffectiveFraction, "", 0.75, 0.15).
		Checked("theta_ja_headroom", r.ThetaJAHeadroom, "", 0.33, 0.25).
		Str("cooling_theoretical_class", fmt.Sprint(r.CostTheoretical.Class)).
		Num("cooling_theoretical_cost_usd", r.CostTheoretical.CostUSD, "USD").
		Str("cooling_effective_class", fmt.Sprint(r.CostEffective.Class)).
		Num("cooling_effective_cost_usd", r.CostEffective.CostUSD, "USD").
		Num("cooling_cost_ratio", r.CostRatio, "").
		Num("virus_peak_temp_c", r.VirusPeakTempC, "°C").
		Num("virus_throughput", r.VirusThroughput, "").
		Checked("intel_65_to_75", r.Intel65to75, "", 3, 0.5)
	return claimResult(c), nil
}

func computeC2(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	rows, err := experiments.Signaling(lab)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title: "C2. Global signaling: repeated CMOS census vs differential low-swing",
		Headers: []string{"node", "repeaters", "P (W)", "area", "cyc/edge scaled", "unscaled",
			"diff E ratio", "diff P (W)", "tracks", "diff SNR", "di/dt ratio"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.NodeNM),
			fmt.Sprintf("%d", r.Repeaters),
			fmt.Sprintf("%.1f", r.SignalingPowerW),
			fmt.Sprintf("%.1f%%", r.RepeaterAreaFraction*100),
			fmt.Sprintf("%.1f", r.ScaledCycles),
			fmt.Sprintf("%.1f", r.UnscaledCycles),
			fmt.Sprintf("%.2f", r.DiffEnergyRatio),
			fmt.Sprintf("%.1f", r.DiffPowerW),
			fmt.Sprintf("%.2f", r.DiffTrackRatio),
			fmt.Sprintf("%.1f", r.DiffSNR),
			fmt.Sprintf("%.3f", r.PeakCurrentRatio))
	}
	t.Notes = append(t.Notes,
		"paper: ~10⁴ repeaters at 180 nm → ~10⁶ at 50 nm; >50 W; Alpha 21264 buses at 10% swing",
		"per [9]: unscaled top-level wiring keeps the die reachable in a few cycles at ITRS clocks")
	return tableResult(t), nil
}

func computeC3(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunLibrary(lab, experiments.DefaultCircuitSetup())
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("gates", float64(r.Setup.Gates), "").
		Num("node_nm", float64(r.Setup.NodeNM), "nm").
		Num("n_libraries", float64(len(r.Results)), "")
	for i, res := range r.Results {
		k := fmt.Sprintf("lib%d_", i)
		c.Str(k+"name", res.Library.Name).
			Num(k+"power_w", res.Power.TotalW(), "W").
			Num(k+"size", res.TotalSize, "").
			Bool(k+"timing_met", res.TimingMet)
	}
	c.Checked("continuous_vs_coarse", r.ContinuousVsCoarse, "", 0.185, 0.25).
		Num("continuous_vs_rich", r.ContinuousVsRich, "")
	return claimResult(c), nil
}

func computeC4(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunCVS(lab, experiments.DefaultCircuitSetup())
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("low_vdd_ratio", r.Setup.LowVddRatio, "").
		Num("path_utilization", r.PathUtilization, "").
		Checked("clustered_assigned_fraction", r.Clustered.AssignedFraction, "", 0.75, 0.2).
		Checked("clustered_dynamic_saving", r.Clustered.DynamicSaving, "", 0.475, 0.2).
		Checked("clustered_lc_overhead", r.Clustered.LCOverheadFraction, "", 0.09, 0.5).
		Checked("clustered_area_overhead", r.Clustered.AreaOverhead, "", 0.15, 0.5).
		Num("clustered_level_converters", float64(r.Clustered.LevelConverters), "").
		Bool("clustered_timing_met", r.Clustered.TimingMet).
		Num("unclustered_assigned_fraction", r.Unclustered.AssignedFraction, "").
		Num("unclustered_dynamic_saving", r.Unclustered.DynamicSaving, "").
		Num("unclustered_lc_overhead", r.Unclustered.LCOverheadFraction, "").
		Num("unclustered_level_converters", float64(r.Unclustered.LevelConverters), "")
	return claimResult(c), nil
}

func computeC5(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunDualVth(lab, experiments.DefaultCircuitSetup())
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("sensitivity_high_vth_fraction", r.Sensitivity.HighVthFraction, "").
		Checked("sensitivity_leakage_saving", r.Sensitivity.LeakageSaving, "", 0.6, 0.34).
		Num("sensitivity_delay_penalty", r.Sensitivity.DelayPenalty, "").
		Bool("sensitivity_timing_met", r.Sensitivity.TimingMet).
		Num("slack_high_vth_fraction", r.SlackOrdered.HighVthFraction, "").
		Num("slack_leakage_saving", r.SlackOrdered.LeakageSaving, "")
	return claimResult(c), nil
}

func computeC6(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunResizeVsVdd(lab, experiments.DefaultCircuitSetup())
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("resize_size_reduction", r.Resize.SizeReduction, "").
		Num("resize_dynamic_saving", r.Resize.DynamicSaving, "").
		Num("resize_sublinearity", r.Resize.Sublinearity, "").
		Num("cvs_assigned_fraction", r.CVSOnSame.AssignedFraction, "").
		Num("cvs_dynamic_saving", r.CVSOnSame.DynamicSaving, "").
		Num("combined_total_saving", r.Combined.TotalSaving, "").
		Num("combined_dynamic_saving", r.Combined.DynamicSaving, "").
		Num("combined_leakage_saving", r.Combined.LeakageSaving, "").
		Bool("combined_timing_met", r.Combined.TimingMet).
		Num("assigned_after_resize", r.AssignedAfterResize, "")
	return claimResult(c), nil
}

func computeC7(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunVddFloor(lab)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Checked("vdd_floor", r.Vdd, "V", 0.44, 0.1).
		Checked("dynamic_saving", r.Savings, "", 0.46, 0.15).
		Num("at02_delay_norm", r.At02V.DelayNorm, "").
		Checked("at02_pdyn_norm", r.At02V.PdynNorm, "", 0.11, 0.3).
		Num("at02_vth", r.At02V.Vth, "V")
	return claimResult(c), nil
}

func computeC8(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunBumps(lab, opts.MeshN)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Checked("effective_pitch_m", r.EffectivePitchM, "m", 356e-6, 0.1).
		Num("min_pitch_m", r.MinPitchM, "m").
		Num("itrs_width_over_min", r.ITRSWidthOverMin, "").
		Bool("itrs_feasible", r.ITRSFeasible).
		Checked("min_width_over_min", r.MinWidthOverMin, "", 16, 0.5).
		Num("supply_current_a", r.Current.SupplyCurrentA, "A").
		Num("vdd_bumps", float64(r.Current.VddBumps), "").
		Num("per_bump_a", r.Current.PerBumpA, "A").
		Num("capability_a", r.Current.CapabilityA, "A").
		Num("required_bumps", float64(r.Current.RequiredBumps), "").
		Num("ladder_ratio", r.LadderRatio, "").
		Num("pessimistic_ratio", r.PessimisticRatio, "")
	return claimResult(c), nil
}

func computeC9(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunTransients(lab)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("node_nm", float64(r.NodeNM), "nm").
		Num("block_standby_savings", r.BlockStandbySavings, "").
		Num("block_delay_penalty", r.BlockDelayPenalty, "").
		Num("block_step_a", r.BlockStepA, "A").
		Num("noise_min_pitch_fraction", r.NoiseMinPitch.NoiseFraction, "").
		Num("noise_itrs_fraction", r.NoiseITRS.NoiseFraction, "").
		Num("safe_ramp_min_pitch_s", r.SafeRampMinPitchS, "s").
		Num("safe_ramp_itrs_s", r.SafeRampITRSS, "s").
		Num("max_instant_step_min_a", r.MaxInstantStepMinA, "A").
		Num("max_instant_step_itrs_a", r.MaxInstantStepITRSA, "A").
		Num("mcml_power_w", r.MCML.McmlPowerW, "W").
		Num("cmos_power_w", r.MCML.CmosPowerW, "W").
		Num("crossover_activity", r.MCML.CrossoverActivity, "").
		Num("current_ripple_ratio", r.MCML.CurrentRippleRatio, "")
	return claimResult(c), nil
}

func computeC10(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunStackVth(lab, 70)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("node_nm", float64(r.NodeNM), "nm").
		Num("n_assignments", float64(len(r.Assignments)), "")
	for i, a := range r.Assignments {
		k := fmt.Sprintf("a%d_", i)
		c.Num(k+"leakage_saving", a.LeakageSaving, "").
			Num(k+"delay_penalty", a.DelayPenalty, "")
	}
	c.Num("best_high_count", float64(r.Best.HighCount()), "").
		Num("best_leakage_saving", r.Best.LeakageSaving, "").
		Num("stack_factor", r.StackFactor, "").
		Num("parked_saving", r.ParkedSaving, "")
	return claimResult(c), nil
}

func computeC11(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunStandby(lab)
	if err != nil {
		return nil, err
	}
	t := &result.Table{
		Title:   "C11. Standby-leakage techniques (§3.2.1), 180 nm vs 35 nm",
		Headers: []string{"technique", "standby@180", "standby@35", "active", "delay", "area", "scales?"},
	}
	for i, a := range r.At35 {
		b := r.At180[i]
		scal := "yes"
		if !a.Scalable {
			scal = "NO"
		}
		t.AddRow(a.Technique.String(),
			fmt.Sprintf("-%.1f%%", b.StandbyReduction*100),
			fmt.Sprintf("-%.1f%%", a.StandbyReduction*100),
			fmt.Sprintf("-%.1f%%", a.ActiveReduction*100),
			fmt.Sprintf("+%.1f%%", a.DelayPenalty*100),
			fmt.Sprintf("+%.1f%%", a.AreaOverhead*100),
			scal)
	}
	t.Notes = append(t.Notes,
		"paper: body-bias-controlled Vth \"does not scale well\"; dual-Vth is the only technique in current high-end MPUs",
		fmt.Sprintf("non-scalable at 35 nm: %v", r.NonScalableAt35()))
	return tableResult(t), nil
}

func computeC12(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunSwingStudy(lab, 50)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("node_nm", float64(r.NodeNM), "nm")
	for _, s := range []struct {
		key string
		st  signaling.SwingStudy
	}{
		{"diff_shielded_", r.DiffShielded},
		{"diff_bare_", r.DiffBare},
		{"se_shielded_", r.SEShielded},
		{"se_bare_", r.SEBare},
	} {
		c.Bool(s.key+"feasible", s.st.Feasible).
			Num(s.key+"min_swing_frac", s.st.MinSwingFrac, "").
			Num(s.key+"energy_ratio_at_min", s.st.EnergyRatioAtMin, "").
			Bool(s.key+"alpha_swing_ok", s.st.AlphaSwingOK)
	}
	return claimResult(c), nil
}

func computeC13(opts Options) (*result.Result, error) {
	lab, err := opts.lab()
	if err != nil {
		return nil, err
	}
	r, err := experiments.RunBusPlan(lab, 50)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("node_nm", float64(r.NodeNM), "nm").
		Num("routes", float64(len(r.Plan.Choices)), "").
		Num("repeated", float64(r.Repeated), "").
		Num("low_swing", float64(r.LowSwing), "").
		Num("differential", float64(r.Differential), "").
		Num("total_power_w", r.Plan.TotalPowerW, "W").
		Num("baseline_power_w", r.Plan.BaselinePowerW, "W").
		Num("saving", r.Plan.Saving, "").
		Num("total_tracks", r.Plan.TotalTracks, "")
	return claimResult(c), nil
}
