package experiments

import (
	"fmt"

	"nanometer/internal/busplan"
	"nanometer/internal/device"
	"nanometer/internal/repeater"
	"nanometer/internal/signaling"
)

// BusPlanResult is the C13 experiment: the conclusion-#2 EDA tool — a
// signaling-primitive planner over a realistic global-route mix, showing the
// power a repeater-only flow leaves on the table.
type BusPlanResult struct {
	NodeNM int
	Plan   *busplan.Plan
	// Counts tallies the primitive mix.
	Repeated, LowSwing, Differential int
}

// RunBusPlan plans a representative 50 nm global-route population: latency-
// critical hops, relaxed cross-chip buses, and high-activity datapath links.
func RunBusPlan(lab *device.Lab, nodeNM int) (*BusPlanResult, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	period := 1 / node.ClockHz
	// Latency-critical hop length: 1.2 clock cycles' worth of repeated-
	// signal travel at this node, under a 1.5-cycle budget — reachable by
	// repeaters, out of reach for unrepeated low-swing links.
	cf, err := repeater.EvaluateClockFeasibilityIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	hopLen := 1.2 * cf.ScaledMMPerCycle * 1e-3
	var routes []busplan.Route
	for i := 0; i < 12; i++ {
		routes = append(routes, busplan.Route{
			Name: fmt.Sprintf("hop%02d", i), LengthM: hopLen,
			LatencyBudgetS: 1.5 * period, ToggleHz: 0.15 * node.ClockHz,
		})
	}
	for i := 0; i < 24; i++ {
		routes = append(routes, busplan.Route{
			Name: fmt.Sprintf("bus%02d", i), LengthM: 8e-3,
			LatencyBudgetS: 20 * period, ToggleHz: 0.15 * node.ClockHz,
		})
	}
	for i := 0; i < 12; i++ {
		routes = append(routes, busplan.Route{
			Name: fmt.Sprintf("dp%02d", i), LengthM: 5e-3,
			LatencyBudgetS: 8 * period, ToggleHz: 0.4 * node.ClockHz,
		})
	}
	p, err := busplan.NewPlannerIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	plan, err := p.Assign(routes)
	if err != nil {
		return nil, err
	}
	counts := plan.SchemeCounts()
	return &BusPlanResult{
		NodeNM:       nodeNM,
		Plan:         plan,
		Repeated:     counts[signaling.FullSwingRepeated],
		LowSwing:     counts[signaling.LowSwing],
		Differential: counts[signaling.DifferentialLowSwing],
	}, nil
}
