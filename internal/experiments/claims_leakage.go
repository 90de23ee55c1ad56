package experiments

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/stackvth"
	"nanometer/internal/standby"
)

// StackVthResult is the C10 experiment: the §3.3 intra-cell multi-Vth idea
// — different thresholds inside one stacked cell buy substantial leakage
// savings at small delay cost, leveraging the state dependence of leakage
// without sleep transistors.
type StackVthResult struct {
	NodeNM int
	// Assignments holds every 2-stack mix (all-low, bottom-high, top-high,
	// all-high).
	Assignments []stackvth.Assignment
	// Best is the largest-saving assignment within a 10 % delay budget.
	Best stackvth.Assignment
	// StackFactor is the all-off/single-off leakage ratio of the all-low
	// stack (the classic stack effect).
	StackFactor float64
	// ParkedSaving is the input-vector-control win: best state vs the
	// state average.
	ParkedSaving float64
}

// RunStackVth evaluates the intra-cell assignment space for a node.
func RunStackVth(lab *device.Lab, nodeNM int) (*StackVthResult, error) {
	d, err := lab.ForNode(nodeNM)
	if err != nil {
		return nil, err
	}
	const load = 5e-15
	as, err := stackvth.ExploreIn(lab, nodeNM, 2, 4*d.LeffM, d.Vth0, d.Vth0+0.1, load)
	if err != nil {
		return nil, err
	}
	best, err := stackvth.BestUnderPenalty(as, 0.10)
	if err != nil {
		return nil, err
	}
	st, err := stackvth.NewStackIn(lab, nodeNM, 2, 4*d.LeffM, []float64{d.Vth0, d.Vth0})
	if err != nil {
		return nil, err
	}
	bothOff, err := st.LeakageForState([]bool{false, false})
	if err != nil {
		return nil, err
	}
	singleOff, err := st.LeakageForState([]bool{true, false})
	if err != nil {
		return nil, err
	}
	avg, err := st.AverageLeakage()
	if err != nil {
		return nil, err
	}
	_, parked, err := st.MinLeakageVector()
	if err != nil {
		return nil, err
	}
	res := &StackVthResult{NodeNM: nodeNM, Assignments: as, Best: best}
	if singleOff > 0 {
		res.StackFactor = bothOff / singleOff
	}
	if avg > 0 {
		res.ParkedSaving = 1 - parked/avg
	}
	return res, nil
}

// StandbyResult is the C11 experiment: the §3.2.1 technique comparison with
// the paper's scalability judgments.
type StandbyResult struct {
	// At35 compares all techniques at the end of the roadmap; At180 at its
	// start.
	At180, At35 []standby.Result
	// BodyBiasTrend carries the reverse-body-bias decay across nodes.
	BodyBiasTrend []standby.Result
}

// RunStandby evaluates the standby-technique comparison.
func RunStandby(lab *device.Lab) (*StandbyResult, error) {
	const width = 1e-3
	at180, err := standby.CompareIn(lab, 180, width)
	if err != nil {
		return nil, err
	}
	at35, err := standby.CompareIn(lab, 35, width)
	if err != nil {
		return nil, err
	}
	trend, err := standby.ScalingTrendIn(lab, standby.ReverseBodyBias, width)
	if err != nil {
		return nil, err
	}
	return &StandbyResult{At180: at180, At35: at35, BodyBiasTrend: trend}, nil
}

// NonScalableAt35 lists the techniques the model flags as not scaling —
// the paper's list is substrate-bias-controlled Vth (and domino styles,
// which are outside this model).
func (r *StandbyResult) NonScalableAt35() []string {
	var out []string
	for _, res := range r.At35 {
		if !res.Scalable {
			out = append(out, fmt.Sprint(res.Technique))
		}
	}
	return out
}
