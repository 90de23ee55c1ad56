package powergrid

import (
	"errors"
	"math"
	"sync"
)

// memoKey identifies a mesh solve by the exact bits that determine its
// result. Meshes built from the same spec through the same deterministic
// pipeline reproduce these bits exactly, so a scenario sweep whose swept
// parameter leaves the 35 nm grid alone finds its first variant's drop with
// no tolerance games, and any perturbation of the grid is a distinct key.
type memoKey struct {
	n                      int
	edgeOhms, nodeCurrentA uint64
}

// memoCall is one memoized solve: done closes once drop/err are final.
// Waiters that arrive while the solve runs block on done instead of
// solving the same system again.
type memoCall struct {
	done chan struct{}
	drop float64
	err  error
}

// ratioMemo holds the drops PessimisticRatio has solved in this process.
// maxMemoEntries bounds it — scenario bodies are untrusted, so a scan over
// distinct supply currents must not grow it without limit — and a full
// memo is dropped whole rather than evicted entry by entry: an entry is a
// few dozen bytes and one re-solve per key is the entire cost of a drop.
var ratioMemo struct {
	mu sync.Mutex
	m  map[memoKey]*memoCall // guarded by mu
}

const maxMemoEntries = 1024

// solveMemo returns m's maximum drop, running Mesh.Solve only for the first
// caller per key. Concurrent callers for one key share that solve and
// count as memo hits, so Solves + MemoHits equals the number of successful
// solveMemo calls. A failed solve is not memoized: its entry is removed
// before done closes, the waiters share the error, and the next caller
// solves again.
func solveMemo(m *Mesh) (float64, error) {
	key := memoKey{m.N, math.Float64bits(m.EdgeOhms), math.Float64bits(m.NodeCurrentA)}
	ratioMemo.mu.Lock()
	if c, ok := ratioMemo.m[key]; ok {
		ratioMemo.mu.Unlock()
		<-c.done
		if c.err == nil {
			meshMemoHits.Add(1)
		}
		return c.drop, c.err
	}
	if ratioMemo.m == nil || len(ratioMemo.m) >= maxMemoEntries {
		ratioMemo.m = make(map[memoKey]*memoCall)
	}
	c := &memoCall{done: make(chan struct{})}
	ratioMemo.m[key] = c
	ratioMemo.mu.Unlock()

	// The error stands unless Solve returns, so a panicking solve (which
	// the runner recovers from) neither strands its waiters nor stays
	// memoized.
	c.err = errSolvePanicked
	defer func() {
		if c.err != nil {
			ratioMemo.mu.Lock()
			if ratioMemo.m[key] == c {
				delete(ratioMemo.m, key)
			}
			ratioMemo.mu.Unlock()
		}
		close(c.done)
	}()
	c.drop, c.err = m.Solve()
	return c.drop, c.err
}

var errSolvePanicked = errors.New("powergrid: mesh solve panicked")

// ResetMemo drops every memoized drop, so the next PessimisticRatio for any
// mesh solves again. Solves in flight finish and hand their result to the
// callers already waiting on them, but are not memoized past the reset.
// The compute cache's flush (repro.ResetCache) calls it, which keeps "flush"
// meaning that nothing computed survives.
func ResetMemo() {
	ratioMemo.mu.Lock()
	ratioMemo.m = nil
	ratioMemo.mu.Unlock()
}
