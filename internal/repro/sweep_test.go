package repro

import (
	"bytes"
	"testing"

	"nanometer/internal/powergrid"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

func sweepVariants(t *testing.T, steps int) []*scenario.Scenario {
	t.Helper()
	s, err := scenario.Parse([]byte(`{
	  "name": "sweeptest",
	  "sweep": {"param": "vdd", "steps": ` + itoa(steps) + `, "span_pct": 20, "nodes": [70]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := s.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// TestVariantJobsMatchSequentialBytes pins the CLI contract the flattening
// must preserve: one flattened pool run over variants × artifacts emits
// the exact bytes of the historical run-each-variant-sequentially loop,
// at any worker count.
func TestVariantJobsMatchSequentialBytes(t *testing.T) {
	ResetCache()
	variants := sweepVariants(t, 3)
	arts, err := Select([]string{"t1", "c8"})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	var sequential bytes.Buffer
	for _, v := range variants {
		vo := opts
		vo.Scenario = v
		if _, err := (runner.Pool{Workers: 1}).RunTo(&sequential, Jobs(arts, vo)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 8} {
		ResetCache()
		var flat bytes.Buffer
		jobs := VariantJobs(arts, opts, variants, nil)
		if len(jobs) != len(arts)*len(variants) {
			t.Fatalf("got %d jobs, want %d", len(jobs), len(arts)*len(variants))
		}
		if _, err := (runner.Pool{Workers: workers}).RunTo(&flat, jobs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat.Bytes(), sequential.Bytes()) {
			t.Fatalf("workers=%d: flattened sweep output diverges from the sequential loop", workers)
		}
	}
}

// TestSweepSharedMeshSolvesOnce: a vdd sweep at 70 nm leaves c8's 35 nm
// grid alone, so its variants all size one mesh. The first variant solves
// it and the rest are memo hits (Solves + MemoHits = variants), and
// ResetCache drops the memo along with the results, so the same sweep
// after a flush solves again.
func TestSweepSharedMeshSolvesOnce(t *testing.T) {
	ResetCache()
	defer ResetCache()
	variants := sweepVariants(t, 3)
	arts, err := Select([]string{"c8"})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		before := powergrid.ReadSolveStats()
		if _, err := ComputeAllVariants(runner.Pool{Workers: 2}, arts, Options{}, variants); err != nil {
			t.Fatal(err)
		}
		after := powergrid.ReadSolveStats()
		if solves, hits := after.Solves-before.Solves, after.MemoHits-before.MemoHits; solves != 1 || hits != 2 {
			t.Errorf("round %d: sweep recorded %d solves and %d memo hits, want 1 and 2", round, solves, hits)
		}
		ResetCache()
	}
}
