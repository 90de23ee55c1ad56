// Package fixture plants solvecheck violations against the real solver
// family: discarded results, blanked errors, and silently dropped
// iteration counts.
package fixture

import (
	"fmt"

	"nanometer/internal/mathx"
	"nanometer/internal/repro"
)

// Whole result discarded.
func discardAll(a *mathx.MeshOperator, ws *mathx.Workspace, mg *mathx.MeshMG, b []float64) {
	mathx.SolveMGW(a, ws, mg, b, 1e-9, 100) // want "result of mathx.SolveMGW discarded"
}

// Discarded through a go statement.
func discardGo(a *mathx.MeshOperator, ws *mathx.Workspace, mg *mathx.MeshMG, b []float64) {
	go mathx.SolveMGW(a, ws, mg, b, 1e-9, 100) // want "result of mathx.SolveMGW discarded by go statement"
}

// Error blanked: ErrNotSPD would vanish.
func blankErr(a *mathx.MeshOperator, ws *mathx.Workspace, mg *mathx.MeshMG, b []float64) []float64 {
	x, iters, _ := mathx.SolveMGW(a, ws, mg, b, 1e-9, 100) // want "err result of mathx.SolveMGW assigned to _"
	_ = iters
	return x
}

// Iteration count silently dropped.
func dropIters(a *mathx.MeshOperator, ws *mathx.Workspace, mg *mathx.MeshMG, b []float64) ([]float64, error) {
	x, _, err := mathx.SolveMGW(a, ws, mg, b, 1e-9, 100) // want "iters result of mathx.SolveMGW silently dropped"
	return x, err
}

// Two-result solvers are covered too.
func denseDiscard(a [][]float64, b []float64) {
	mathx.SolveDense(a, b) // want "result of mathx.SolveDense discarded"
}

// The repro compute entry points carry the same contract.
func computeDiscard(a repro.Artifact, opts repro.Options) {
	a.ComputeCached(opts) // want "result of repro.ComputeCached discarded"
}

func computeBlankErr(a repro.Artifact, opts repro.Options) {
	res, _ := a.ComputeCached(opts) // want "err result of repro.ComputeCached assigned to _"
	_ = res
}

// The compliant shape: both iters and err handled.
func handled(a *mathx.MeshOperator, ws *mathx.Workspace, mg *mathx.MeshMG, b []float64) ([]float64, error) {
	x, iters, err := mathx.SolveMGW(a, ws, mg, b, 1e-9, 100)
	if err != nil {
		return nil, fmt.Errorf("solve failed after %d iterations: %w", iters, err)
	}
	return x, nil
}

// An annotated drop: the reason names where iters is accounted for.
func allowedDrop(a *mathx.MeshOperator, ws *mathx.Workspace, mg *mathx.MeshMG, b []float64) ([]float64, error) {
	//lint:allow solvecheck iteration count covered by the bench harness
	x, _, err := mathx.SolveMGW(a, ws, mg, b, 1e-9, 100)
	return x, err
}
