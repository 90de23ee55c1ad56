package powergrid

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestRatioMemoMatchesSolve is the memo's differential test: a seeded
// random sequence of grid specs and mesh sizes, with repeats, goes through
// PessimisticRatio, and every ratio must equal the one a fresh Mesh.Solve
// of the same mesh gives, bit for bit. Only first sightings of a mesh may
// solve; every repeat is a memo hit. Doubling the hot-spot factor and the
// IR budget together doubles the current but leaves the sized rails (the
// edge resistance) bit-identical, and changing only the budget does the
// reverse, so the sequence has meshes that differ in each key field alone.
func TestRatioMemoMatchesSolve(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	rng := rand.New(rand.NewSource(12))
	pitches := []float64{60e-6, 80e-6, 120e-6}
	hotspots := []float64{2, 4}
	budgets := []float64{0.05, 0.10}
	sizes := []int{9, 15, 21}
	seen := map[memoKey]bool{}
	before := ReadSolveStats()
	const calls = 60
	for i := 0; i < calls; i++ {
		s := spec35(pitches[rng.Intn(len(pitches))])
		s.HotspotFactor = hotspots[rng.Intn(len(hotspots))]
		s.IRBudgetFraction = budgets[rng.Intn(len(budgets))]
		n := sizes[rng.Intn(len(sizes))]
		got, err := PessimisticRatio(s, n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := PessimisticMesh(s, n)
		if err != nil {
			t.Fatal(err)
		}
		seen[memoKey{m.N, math.Float64bits(m.EdgeOhms), math.Float64bits(m.NodeCurrentA)}] = true
		drop, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * drop / s.topBudgetV(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d (pitch %g, hotspot %g, budget %g, n %d): memoized ratio %v, fresh solve %v", i, s.BumpPitchM, s.HotspotFactor, s.IRBudgetFraction, n, got, want)
		}
	}
	after := ReadSolveStats()
	// Each call above ran one direct Mesh.Solve besides PessimisticRatio.
	memoSolves := after.Solves - before.Solves - calls
	hits := after.MemoHits - before.MemoHits
	if memoSolves != uint64(len(seen)) || memoSolves+hits != calls {
		t.Errorf("%d calls over %d meshes: %d memo solves and %d hits, want %d and %d", calls, len(seen), memoSolves, hits, len(seen), calls-len(seen))
	}
}

// TestRatioMemoSingleflight: concurrent callers for one mesh share one
// solve; the others wait for it and count as hits.
func TestRatioMemoSingleflight(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	const callers = 8
	s := spec35(80e-6)
	before := ReadSolveStats()
	ratios := make([]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ratios[i], errs[i] = PessimisticRatio(s, 127)
		}(i)
	}
	wg.Wait()
	after := ReadSolveStats()
	for i := range ratios {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if math.Float64bits(ratios[i]) != math.Float64bits(ratios[0]) {
			t.Fatalf("caller %d got %v, caller 0 got %v", i, ratios[i], ratios[0])
		}
	}
	if solves, hits := after.Solves-before.Solves, after.MemoHits-before.MemoHits; solves != 1 || hits != callers-1 {
		t.Errorf("%d concurrent callers ran %d solves and %d hits, want 1 and %d", callers, solves, hits, callers-1)
	}
}

// TestRatioMemoDoesNotKeepErrors: a solve that fails leaves nothing behind,
// so the next caller solves again instead of replaying the error, and a
// failure counts as neither a solve nor a hit.
func TestRatioMemoDoesNotKeepErrors(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	bad := &Mesh{N: 9, EdgeOhms: -1, NodeCurrentA: 1e-4} // negative conductance
	key := memoKey{bad.N, math.Float64bits(bad.EdgeOhms), math.Float64bits(bad.NodeCurrentA)}
	before := ReadSolveStats()
	for i := 0; i < 2; i++ {
		if _, err := solveMemo(bad); err == nil {
			t.Fatalf("attempt %d: negative edge resistance solved", i)
		}
		ratioMemo.mu.Lock()
		_, kept := ratioMemo.m[key]
		ratioMemo.mu.Unlock()
		if kept {
			t.Fatalf("attempt %d: failed solve left a memo entry", i)
		}
	}
	if after := ReadSolveStats(); after.Solves != before.Solves || after.MemoHits != before.MemoHits {
		t.Errorf("failed solves moved the counters: solves %d→%d, hits %d→%d", before.Solves, after.Solves, before.MemoHits, after.MemoHits)
	}
}

// TestRatioMemoBoundedAndReset: the memo never holds more than
// maxMemoEntries drops — the insert past the bound starts it over — and
// ResetMemo empties it.
func TestRatioMemoBoundedAndReset(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	memoLen := func() int {
		ratioMemo.mu.Lock()
		defer ratioMemo.mu.Unlock()
		return len(ratioMemo.m)
	}
	for i := 0; i <= maxMemoEntries; i++ {
		m := &Mesh{N: 5, EdgeOhms: 1 + float64(i)*1e-3, NodeCurrentA: 1e-4}
		if _, err := solveMemo(m); err != nil {
			t.Fatal(err)
		}
		if got := memoLen(); got > maxMemoEntries {
			t.Fatalf("memo holds %d drops, bound is %d", got, maxMemoEntries)
		}
	}
	if got := memoLen(); got != 1 {
		t.Errorf("memo holds %d drops after overflowing, want 1 (cleared whole, then the new drop)", got)
	}
	ResetMemo()
	if got := memoLen(); got != 0 {
		t.Errorf("memo holds %d drops after ResetMemo", got)
	}
}
