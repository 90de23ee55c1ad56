package repro

import (
	"bytes"
	"context"
	"testing"

	"nanometer/internal/powergrid"
	"nanometer/internal/render"
	"nanometer/internal/result"
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

// sweepText runs one Sweep and encodes each variant as report text
// the moment it is emitted — the CLI's sweep path.
func sweepText(t *testing.T, workers int, arts []Artifact, variants []*scenario.Scenario) []byte {
	t.Helper()
	var out bytes.Buffer
	Sweep(context.Background(), runner.Pool{Workers: workers}, arts, Options{}, variants, func(i int, res []*result.Result, err error) {
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if err := render.Report(&out, "text", render.Text{}, res); err != nil {
			t.Fatal(err)
		}
	})
	return out.Bytes()
}

// TestSweepMatchesSequentialBytes pins the CLI contract the single sweep
// run must preserve: one pool run over variants × artifacts emits the
// exact bytes of running each variant on its own, one after another, at
// any worker count.
func TestSweepMatchesSequentialBytes(t *testing.T) {
	ResetCache()
	variants := sweepVariants(t, 3)
	arts, err := Select([]string{"t1", "c8"})
	if err != nil {
		t.Fatal(err)
	}
	var sequential bytes.Buffer
	for _, v := range variants {
		sequential.Write(sweepText(t, 1, arts, []*scenario.Scenario{v}))
	}
	for _, workers := range []int{1, 8} {
		ResetCache()
		if !bytes.Equal(sweepText(t, workers, arts, variants), sequential.Bytes()) {
			t.Fatalf("workers=%d: the sweep's output diverges from the sequential loop", workers)
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
		sweepText(t, 2, arts, variants)
		after := powergrid.ReadSolveStats()
		if solves, hits := after.Solves-before.Solves, after.MemoHits-before.MemoHits; solves != 1 || hits != 2 {
			t.Errorf("round %d: sweep recorded %d solves and %d memo hits, want 1 and 2", round, solves, hits)
		}
		ResetCache()
	}
}
