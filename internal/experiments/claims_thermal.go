package experiments

import (
	"nanometer/internal/device"
	"nanometer/internal/thermal"
)

// DTMResult is the C1 experiment: dynamic thermal management lets the
// package be designed for the effective worst case instead of the
// theoretical worst case.
type DTMResult struct {
	NodeNM int
	// TheoreticalWorstW is the power-virus dissipation; EffectiveWorstW
	// the highest sustained power real workloads reach under the DTM
	// controller.
	TheoreticalWorstW, EffectiveWorstW float64
	// EffectiveFraction is their ratio (the paper's ≈75 %).
	EffectiveFraction float64
	// ThetaJAHeadroom is the allowable θja relief (the paper's ≈33 %).
	ThetaJAHeadroom float64
	// CostTheoretical and CostEffective are the cooling-solution costs for
	// the two design points; CostRatio their ratio.
	CostTheoretical, CostEffective thermal.CoolingSolution
	CostRatio                      float64
	// VirusThrottled shows the controller containing a power virus: peak
	// temperature with DTM stays at the limit while throughput degrades
	// gracefully.
	VirusPeakTempC, VirusThroughput float64
	// Intel65to75 reproduces the cited cost step: cooling-cost ratio of a
	// 75 W design over a 65 W design at the 1999 junction/ambient point.
	Intel65to75 float64
}

// DTM runs the C1 experiment for a node.
func DTM(lab *device.Lab, nodeNM int) (*DTMResult, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	res := &DTMResult{NodeNM: nodeNM, TheoreticalWorstW: node.MaxPowerW}

	// Package sized for the theoretical worst case.
	pkgTheo := thermal.Package{ThetaJA: node.ThetaJA, AmbientC: node.AmbientTempC}
	const cth = 40.0 // J/°C die+spreader
	const dt = 0.01  // 10 ms control interval
	ctrl := thermal.ClockThrottle{DutyCycle: 0.5}

	// A spread of power-hungry application traces.
	var traces [][]float64
	for seed := int64(1); seed <= 5; seed++ {
		p := thermal.DefaultWorkload(node.MaxPowerW)
		p.Seed = seed
		traces = append(traces, p.Generate(4000))
	}
	res.EffectiveWorstW = thermal.EffectiveWorstCase(pkgTheo, cth, node.JunctionTempC, ctrl, traces, dt)
	res.EffectiveFraction = res.EffectiveWorstW / res.TheoreticalWorstW
	res.ThetaJAHeadroom = thermal.ThetaJAHeadroom(res.TheoreticalWorstW, res.EffectiveWorstW)

	res.CostTheoretical, err = thermal.SelectCooling(res.TheoreticalWorstW, node.JunctionTempC, node.AmbientTempC)
	if err != nil {
		return nil, err
	}
	res.CostEffective, err = thermal.SelectCooling(res.EffectiveWorstW, node.JunctionTempC, node.AmbientTempC)
	if err != nil {
		return nil, err
	}
	if res.CostEffective.CostUSD > 0 {
		res.CostRatio = res.CostTheoretical.CostUSD / res.CostEffective.CostUSD
	}

	// Power virus through a package sized only for the effective worst
	// case: DTM must hold the junction.
	thetaEff, err := thermal.RequiredThetaJA(res.EffectiveWorstW, node.JunctionTempC, node.AmbientTempC)
	if err != nil {
		return nil, err
	}
	plant := thermal.NewPlant(thermal.Package{ThetaJA: thetaEff, AmbientC: node.AmbientTempC}, cth)
	sensor := &thermal.Sensor{TripC: node.JunctionTempC - 1, HysteresisC: 2}
	virus := thermal.PowerVirus(node.MaxPowerW, 8000)
	vr := thermal.Simulate(plant, sensor, ctrl, virus, dt)
	res.VirusPeakTempC = vr.PeakTempC
	res.VirusThroughput = vr.Throughput

	// The Intel 65→75 W observation at the 1999 design point.
	c65, err := thermal.SelectCooling(65, 100, 45)
	if err != nil {
		return nil, err
	}
	c75, err := thermal.SelectCooling(75, 100, 45)
	if err != nil {
		return nil, err
	}
	if c65.CostUSD > 0 {
		res.Intel65to75 = c75.CostUSD / c65.CostUSD
	}
	return res, nil
}
