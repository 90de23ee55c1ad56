package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nanometer/internal/render"
	"nanometer/internal/result"
	"nanometer/internal/runner"
)

// TestParallelOutputByteIdentical is the harness's core guarantee: the full
// report renders to exactly the same bytes for one worker and many.
func TestParallelOutputByteIdentical(t *testing.T) {
	arts := Artifacts()
	if testing.Short() {
		sel, err := Select([]string{"t1", "t2", "f2", "f5", "c7", "c8"})
		if err != nil {
			t.Fatal(err)
		}
		arts = sel
	}
	serial := mustReport(t, 1, "text", render.Text{}, arts)
	parallel := mustReport(t, 8, "text", render.Text{}, arts)
	if len(serial) == 0 {
		t.Fatal("report rendered no output")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel report differs from serial (%d vs %d bytes)", len(parallel), len(serial))
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != len(Artifacts()) {
		t.Fatalf("empty selection must return everything: %v, %d", err, len(all))
	}
	// Order is canonical regardless of request order; IDs are
	// case-insensitive and tolerate blanks (flag splitting artifacts).
	sel, err := Select([]string{"C8", " f3", "", "t1"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, a := range sel {
		ids = append(ids, a.ID)
	}
	if strings.Join(ids, ",") != "t1,f3,c8" {
		t.Fatalf("selection order %v, want canonical t1,f3,c8", ids)
	}
	if _, err := Select([]string{"t1", "nope"}); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestCSVFailureIsAggregatedNotFatal: a broken CSV directory fails only the
// figure artifacts, the rest of the report still renders, and the error
// aggregate names each broken artifact.
func TestCSVFailureIsAggregatedNotFatal(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	arts, err := Select([]string{"t1", "f2", "c7"})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ComputeAllCtx(context.Background(), runner.Pool{Workers: 4}, arts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := render.Text{CSVDir: filepath.Join(blocker, "sub")} // Create() must fail
	var out bytes.Buffer
	agg := render.Report(&out, "text", text, results)
	if agg == nil {
		t.Fatal("CSV failure must surface in the aggregate")
	}
	// t1 and c7 write no CSVs and must succeed; f2's table text precedes
	// the CSV step and is still emitted.
	if msg := agg.Error(); !strings.HasPrefix(msg, "f2: ") || strings.Contains(msg, "\n") {
		t.Fatalf("aggregate %q must name exactly the broken artifact", msg)
	}
	if !strings.Contains(out.String(), "Figure 2 (as data)") {
		t.Fatal("partial output of the failed artifact was dropped")
	}
	if !strings.Contains(out.String(), "C7. Vdd floor") {
		t.Fatal("healthy artifacts after the failure were dropped")
	}
}

// TestCSVRoundTrip: with a real directory every selected figure writes its
// CSV and announces it in the report body.
func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	arts, err := Select([]string{"f2"})
	if err != nil {
		t.Fatal(err)
	}
	out := mustReport(t, 0, "text", render.Text{CSVDir: dir}, arts)
	csv, err := os.ReadFile(filepath.Join(dir, "figure2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csv) == 0 {
		t.Fatal("empty CSV")
	}
	if !strings.Contains(string(out), "wrote "+filepath.Join(dir, "figure2.csv")) {
		t.Fatal("CSV write not announced in the report")
	}
}

// sanity: artifacts must not write to anything but w (no stray os.Stdout
// prints), which the byte-identity test can't see. Encode one artifact and
// confirm output lands only in the buffer.
func TestRenderersWriteOnlyToWriter(t *testing.T) {
	for _, a := range Artifacts() {
		if a.Compute == nil {
			t.Fatalf("%s has no compute function", a.ID)
		}
	}
	arts, err := Select([]string{"c7"})
	if err != nil {
		t.Fatal(err)
	}
	if out := mustReport(t, 1, "text", render.Text{}, arts); !strings.HasPrefix(string(out), "C7.") {
		t.Fatalf("unexpected C7 output %q", out)
	}
}

var errSentinel = errors.New("sentinel")

// fakeArtifact computes a one-table result whose title is the artifact's
// payload marker, failing with err when set.
func fakeArtifact(id, marker string, err error) Artifact {
	return Artifact{ID: id, Title: id, Compute: func(Options) (*result.Result, error) {
		if err != nil {
			return nil, err
		}
		res := &result.Result{}
		res.AddTable(&result.Table{Title: marker, Headers: []string{"x"}})
		return res, nil
	}}
}

// TestSweepBindsEachArtifact: the sweep must close over each
// artifact and each variant independently (the classic range-variable trap
// would compute the last one N times), and per-artifact compute errors
// must reach the variant's error with the artifact's ID, leaving a nil slot.
func TestSweepBindsEachArtifact(t *testing.T) {
	ResetCache()
	defer ResetCache()
	arts := []Artifact{
		fakeArtifact("fake-a", "marker-A", nil),
		fakeArtifact("fake-b", "marker-B", errSentinel),
	}
	variants := sweepVariants(t, 2)
	var got []string
	Sweep(context.Background(), runner.Pool{Workers: 2}, arts, Options{}, variants, func(i int, res []*result.Result, err error) {
		if len(res) != 2 || res[0] == nil || res[1] != nil {
			t.Fatalf("variant %d results %v, want one result then a nil slot", i, res)
		}
		got = append(got, res[0].Scenario+" "+res[0].Items[0].Table.Title)
		if !errors.Is(err, errSentinel) || !strings.HasPrefix(err.Error(), "fake-b: ") {
			t.Fatalf("variant %d error %v, want fake-b's sentinel", i, err)
		}
	})
	want := []string{variants[0].Name + " marker-A", variants[1].Name + " marker-A"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("emitted %v, want %v", got, want)
	}
}

// TestSweepCancelFromEmit cancels the sweep from inside variant 0's
// emit: every variant is still emitted exactly once and in grid order, the
// artifacts that had not started settle with context.Canceled and a nil
// slot, and the call returns once the computes already running finish.
func TestSweepCancelFromEmit(t *testing.T) {
	ResetCache()
	defer ResetCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	var (
		mu      sync.Mutex
		started = map[string]bool{}
	)
	art := func(id string) Artifact {
		return Artifact{ID: id, Title: id, Compute: func(opts Options) (*result.Result, error) {
			mu.Lock()
			started[id+"@"+opts.Scenario.Name] = true
			mu.Unlock()
			if !strings.HasSuffix(opts.Scenario.Name, "=0.800") {
				<-release // later variants hold their workers until the cancel
			}
			res := &result.Result{}
			res.AddTable(&result.Table{Title: id, Headers: []string{"x"}})
			return res, nil
		}}
	}
	arts := []Artifact{art("x1"), art("x2")}
	variants := sweepVariants(t, 5)
	var order []int
	Sweep(ctx, runner.Pool{Workers: 2}, arts, Options{}, variants, func(i int, res []*result.Result, err error) {
		order = append(order, i)
		if i == 0 {
			cancel()
			close(release)
		}
		mu.Lock()
		defer mu.Unlock()
		for ai, a := range arts {
			ran := started[a.ID+"@"+variants[i].Name]
			if ran && res[ai] == nil {
				t.Errorf("variant %d: started artifact %s has no result", i, a.ID)
			}
			if !ran && (res[ai] != nil || !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), a.ID+": context canceled")) {
				t.Errorf("variant %d: unstarted artifact %s settled with %v, want context.Canceled", i, a.ID, err)
			}
		}
	})
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("emit order %v, want each variant once in grid order", order)
	}
	mu.Lock()
	defer mu.Unlock()
	// Only the two workers' claims can outlive the cancel: variant 0 and
	// at most one variant behind it ever start.
	for _, v := range variants[2:] {
		for _, a := range arts {
			if started[a.ID+"@"+v.Name] {
				t.Errorf("%s@%s started after the sweep was canceled", a.ID, v.Name)
			}
		}
	}
}
