package powergrid

import (
	"fmt"
	"runtime"
	"sync"

	"nanometer/internal/mathx"
)

// meshSolver is one solve's worth of mutable state for an n×n mesh: the
// matrix-free stencil operator, the right-hand side, the Krylov workspace
// and the multigrid level vectors. About 83·n² bytes (≈5.4 MB at n = 255,
// ≈87 MB at MaxMeshN); the multigrid's read-only geometry is shared per
// size through meshHierarchies.
type meshSolver struct {
	n   int
	op  *mathx.MeshOperator
	rhs []float64
	ws  mathx.Workspace
	mg  *mathx.MeshMG
}

var meshHierarchies sync.Map // int (grid side n) → *mathx.MeshHierarchy

// maxCachedHierarchies bounds the hierarchy cache: the hierarchy for side n
// holds O(n²) inverse diagonals (~11 MB at the n=1023 cap), and the serving
// layer lets untrusted clients pick n, so a scan across distinct sizes must
// recycle slots instead of accumulating them. Eight slots cover the report
// default plus a realistic refinement sweep; eviction only costs the next
// solver built at the evicted size a re-derivation.
const maxCachedHierarchies = 8

var hierarchyEvict struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// center is the flat index of the pinned bump node of an n×n mesh.
func center(n int) int { return (n/2)*n + n/2 }

// hierarchyFor returns the cached multigrid hierarchy for an n×n mesh,
// deriving it on first use.
func hierarchyFor(n int) (*mathx.MeshHierarchy, error) {
	if v, ok := meshHierarchies.Load(n); ok {
		return v.(*mathx.MeshHierarchy), nil
	}
	h, err := mathx.NewMeshHierarchy(n, center(n))
	if err != nil {
		return nil, err
	}
	v, loaded := meshHierarchies.LoadOrStore(n, h) // racing builders: first in wins
	if !loaded {
		capHierarchies(n)
	}
	return v.(*mathx.MeshHierarchy), nil
}

// capHierarchies evicts arbitrary other entries until at most
// maxCachedHierarchies remain, keeping the just-inserted size. Solvers
// hold direct references into their hierarchy, so eviction never breaks
// them — the entry just becomes collectable once they are dropped.
func capHierarchies(keep int) {
	hierarchyEvict.mu.Lock()
	defer hierarchyEvict.mu.Unlock()
	hierarchyEvict.n++
	if hierarchyEvict.n <= maxCachedHierarchies {
		return
	}
	meshHierarchies.Range(func(k, _ any) bool {
		if k.(int) == keep {
			return true
		}
		meshHierarchies.Delete(k)
		hierarchyEvict.n--
		return hierarchyEvict.n > maxCachedHierarchies
	})
}

// solvers is the free list of idle solvers, most recently released last.
// It keeps at most GOMAXPROCS of them — as many as can solve at once — so
// a sweep solving its distinct meshes side by side finds a warm solver for
// every worker on the next sweep, and no garbage collection between sweeps
// can drop one (each lost solver costs its ~83·n² bytes again). The bound
// holds whatever sizes clients ask for: releasing into a full list drops
// the least recently released solver.
var solvers struct {
	mu   sync.Mutex
	free []*meshSolver // guarded by mu
}

// acquireSolver takes the most recently released idle solver for an n×n
// mesh, building one on a miss. The caller owns it until releaseSolver.
func acquireSolver(n int) (*meshSolver, error) {
	solvers.mu.Lock()
	for i := len(solvers.free) - 1; i >= 0; i-- {
		if sv := solvers.free[i]; sv.n == n {
			last := len(solvers.free) - 1
			copy(solvers.free[i:], solvers.free[i+1:])
			solvers.free[last] = nil
			solvers.free = solvers.free[:last]
			solvers.mu.Unlock()
			return sv, nil
		}
	}
	solvers.mu.Unlock()
	h, err := hierarchyFor(n)
	if err != nil {
		return nil, fmt.Errorf("powergrid: mesh multigrid: %w", err)
	}
	op, err := mathx.NewMeshOperator(n, center(n))
	if err != nil {
		return nil, fmt.Errorf("powergrid: mesh operator: %w", err)
	}
	return &meshSolver{n: n, op: op, rhs: make([]float64, op.Dim()), mg: mathx.NewMeshMG(h)}, nil
}

// releaseSolver returns sv to the free list, dropping the least recently
// released solver when the list is full.
func releaseSolver(sv *meshSolver) {
	solvers.mu.Lock()
	defer solvers.mu.Unlock()
	if limit := runtime.GOMAXPROCS(0); len(solvers.free) >= limit {
		drop := len(solvers.free) - limit + 1
		n := copy(solvers.free, solvers.free[drop:])
		clear(solvers.free[n:])
		solvers.free = solvers.free[:n]
	}
	solvers.free = append(solvers.free, sv)
}
