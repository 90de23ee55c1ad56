package experiments

import (
	"nanometer/internal/device"
	"nanometer/internal/repeater"
	"nanometer/internal/signaling"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

// SignalingRow is one node of the C2 experiment: the repeated-CMOS global
// signaling census and the low-swing differential alternative.
type SignalingRow struct {
	NodeNM int
	// Repeaters and SignalingPowerW come from the chip census (the paper:
	// ~10⁴ at 180 nm → ~10⁶ at 50 nm; >50 W in the nanometer regime).
	Repeaters       int
	SignalingPowerW float64
	// RepeaterAreaFraction is the silicon the repeaters occupy.
	RepeaterAreaFraction float64
	// ClusterDensityWPerCm2 is the repeater-cluster power density
	// (footnote 2: "can exceed 100 W/cm²").
	ClusterDensityWPerCm2 float64
	// CrossChipDelayS is the optimally repeated die-edge wire delay;
	// ClockPeriodS the node's global clock period; CyclesPerCrossing their
	// ratio (global wires become multi-cycle).
	CrossChipDelayS, ClockPeriodS float64
	CyclesPerCrossing             float64
	// DiffEnergyRatio is differential-low-swing energy over full-swing on
	// the same route (the Alpha-style 10 % swing); DiffPowerW the census
	// power if all repeated global wiring switched at that ratio.
	DiffEnergyRatio float64
	DiffPowerW      float64
	// DiffTrackRatio is the routing-track cost of the differential pair
	// (shield-amortized, < 2).
	DiffTrackRatio float64
	// DiffSNR / BaseSNR are the noise closures.
	DiffSNR, BaseSNR float64
	// PeakCurrentRatio is the grid di/dt relief of the low-swing driver.
	PeakCurrentRatio float64
	// ScaledCycles and UnscaledCycles are die-edge crossing times (global
	// clock cycles) on scaled vs unscaled top-level wiring — the premise
	// from [9] that unscaled wiring keeps ITRS clocks reachable.
	ScaledCycles, UnscaledCycles float64
}

// Signaling runs the C2 experiment across the roadmap.
func Signaling(lab *device.Lab) ([]SignalingRow, error) {
	var rows []SignalingRow
	for _, nm := range lab.NodesNM() {
		node := lab.MustNode(nm)
		census, err := repeater.TakeCensusIn(lab, nm, repeater.CensusParams{})
		if err != nil {
			return nil, err
		}
		T := units.CelsiusToKelvin(85)
		drv, err := repeater.UnitDriverIn(lab, nm, T)
		if err != nil {
			return nil, err
		}
		line, err := wire.ForNodeIn(lab.Table(), nm, wire.Global)
		if err != nil {
			return nil, err
		}
		length, err := wire.CrossChipLengthIn(lab.Table(), nm)
		if err != nil {
			return nil, err
		}
		ins := repeater.Optimize(drv, line, length)
		cmp, err := signaling.Compare(line, length, node.Vdd, 0.10, signaling.DifferentialLowSwing)
		if err != nil {
			return nil, err
		}
		row := SignalingRow{
			NodeNM:                nm,
			Repeaters:             census.Repeaters,
			SignalingPowerW:       census.SignalingPowerW,
			RepeaterAreaFraction:  census.RepeaterAreaFraction,
			ClusterDensityWPerCm2: census.ClusterPowerDensityWPerM2 / 1e4,
			CrossChipDelayS:       ins.Delay,
			ClockPeriodS:          1 / node.ClockHz,
			CyclesPerCrossing:     ins.Delay * node.ClockHz,
			DiffEnergyRatio:       cmp.EnergyRatio,
			DiffTrackRatio:        cmp.TrackRatio,
			DiffSNR:               cmp.AltSNR,
			BaseSNR:               cmp.BaseSNR,
			PeakCurrentRatio:      cmp.PeakCurrentRatio,
		}
		row.DiffPowerW = census.SignalingPowerW * cmp.EnergyRatio
		cf, err := repeater.EvaluateClockFeasibilityIn(lab, nm)
		if err != nil {
			return nil, err
		}
		row.ScaledCycles = cf.ScaledCycles
		row.UnscaledCycles = cf.UnscaledCycles
		rows = append(rows, row)
	}
	return rows, nil
}

// SwingStudyResult is the C12 experiment: the paper's called-for "further
// study... to determine worst-case noise behavior and tolerable voltage
// swings", run at the 50 nm node against an SNR-2 closure target.
type SwingStudyResult struct {
	NodeNM int
	// DiffShielded, DiffBare, SEShielded, SEBare are the four environments.
	DiffShielded, DiffBare, SEShielded, SEBare signaling.SwingStudy
}

// RunSwingStudy evaluates tolerable swings on a cross-unit global route.
func RunSwingStudy(lab *device.Lab, nodeNM int) (*SwingStudyResult, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	line, err := wire.ForNodeIn(lab.Table(), nodeNM, wire.Global)
	if err != nil {
		return nil, err
	}
	const length = 6e-3
	const snr = 2.0
	out := &SwingStudyResult{NodeNM: nodeNM}
	if out.DiffShielded, err = signaling.StudySwing(line, length, node.Vdd, signaling.DifferentialLowSwing, true, snr); err != nil {
		return nil, err
	}
	if out.DiffBare, err = signaling.StudySwing(line, length, node.Vdd, signaling.DifferentialLowSwing, false, snr); err != nil {
		return nil, err
	}
	if out.SEShielded, err = signaling.StudySwing(line, length, node.Vdd, signaling.LowSwing, true, snr); err != nil {
		return nil, err
	}
	if out.SEBare, err = signaling.StudySwing(line, length, node.Vdd, signaling.LowSwing, false, snr); err != nil {
		return nil, err
	}
	return out, nil
}
