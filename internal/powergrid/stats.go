package powergrid

import "sync/atomic"

// Cumulative mesh-solve telemetry. The solvecheck analyzer forbids
// dropping the iteration count a solver reports, and for good reason: the
// MG-PCG path is fast precisely because its iteration count stays flat
// (≤ 25 through n = 255), and a regression there — a broken prolongation,
// a bad smoother weight — shows up as iteration creep long before results
// go wrong. Every Mesh.Solve accounts its count here; the daemon exports
// the counters on /metrics so that creep is visible on a dashboard, not
// just in benchmarks.
var meshSolves, meshSolveIters, meshMemoHits atomic.Uint64

// SolveStats is a point-in-time snapshot of the mesh-solve counters.
type SolveStats struct {
	// Solves is the number of mesh solves that ran to completion;
	// Iterations is the total MG-PCG iterations they spent.
	// Iterations/Solves is the health number: near-constant per mesh size
	// by construction.
	Solves, Iterations uint64
	// MemoHits counts PessimisticRatio calls answered by the drop memo
	// instead of a solve, including callers that waited on a solve already
	// in flight. Solves + MemoHits is the number of drops handed out.
	MemoHits uint64
}

// ReadSolveStats snapshots the counters for /metrics.
func ReadSolveStats() SolveStats {
	return SolveStats{
		Solves:     meshSolves.Load(),
		Iterations: meshSolveIters.Load(),
		MemoHits:   meshMemoHits.Load(),
	}
}

func recordSolve(iters int) {
	meshSolves.Add(1)
	meshSolveIters.Add(uint64(iters))
}
