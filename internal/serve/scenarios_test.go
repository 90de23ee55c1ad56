package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/repro"
	"nanometer/internal/result"
)

func postScenario(t *testing.T, s *Server, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// decodeLines parses an NDJSON scenarios response.
func decodeLines(t *testing.T, body *bytes.Buffer) []variantLine {
	t.Helper()
	var out []variantLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line variantLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScenariosSweepFansOut: a 9-step Vdd sweep posted to the endpoint
// yields 9 typed per-variant lines in grid order, each carrying every
// selected artifact, with distinct scenario keys, and the per-scenario
// compute counter advances under the base scenario name.
func TestScenariosSweepFansOut(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	arts := []repro.Artifact{counting("sw1", &computes, 0, nil), counting("sw2", &computes, 0, nil)}
	srv := New(Config{Artifacts: arts})
	body := `{"name":"mix","sweep":{"param":"vdd","steps":9,"span_pct":20,"nodes":[70]}}`
	rec := postScenario(t, srv, "/api/v1/scenarios", body)
	if rec.Code != 200 {
		t.Fatalf("POST = %d (body: %s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 9 {
		t.Fatalf("got %d variant lines, want 9", len(lines))
	}
	keys := map[string]bool{}
	for i, line := range lines {
		want := fmt.Sprintf("mix/vdd=%.3f", 0.8+0.4*float64(i)/8)
		if line.Scenario != want {
			t.Errorf("line %d scenario = %q, want %q (grid order is part of the contract)", i, line.Scenario, want)
		}
		if line.Error != "" {
			t.Errorf("line %d: %s", i, line.Error)
		}
		if len(line.Artifacts) != 2 {
			t.Errorf("line %d carries %d artifacts, want 2", i, len(line.Artifacts))
		}
		for _, res := range line.Artifacts {
			if res.Scenario != line.Scenario {
				t.Errorf("line %d: result %s stamped %q", i, res.ID, res.Scenario)
			}
		}
		if keys[line.Key] {
			t.Errorf("line %d reuses scenario key %s", i, line.Key)
		}
		keys[line.Key] = true
	}
	if n := computes.Load(); n != 18 {
		t.Errorf("model stack ran %d times, want 18 (9 variants × 2 artifacts)", n)
	}
	var met bytes.Buffer
	srv.met.reg.WritePrometheus(&met)
	if !strings.Contains(met.String(), `nanoreprod_scenario_computes_total{scenario="mix"} 9`) {
		t.Errorf("scenario counter missing or wrong:\n%s", grepLines(met.String(), "scenario_computes"))
	}
}

// TestScenariosRepeatHitsCache: posting the same scenario twice computes
// once — scenario identity is inside the compute-cache key.
func TestScenariosRepeatHitsCache(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	arts := []repro.Artifact{counting("rc1", &computes, 0, nil)}
	srv := New(Config{Artifacts: arts})
	body := `{"name":"again","nodes":[{"node_nm":70,"vdd_v":1.0}]}`
	for i := 0; i < 3; i++ {
		if rec := postScenario(t, srv, "/api/v1/scenarios", body); rec.Code != 200 {
			t.Fatalf("POST #%d = %d", i, rec.Code)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("3 identical scenario posts ran the model stack %d times, want 1", n)
	}
	// A different override is a different key: it must compute again.
	if rec := postScenario(t, srv, "/api/v1/scenarios", `{"name":"again","nodes":[{"node_nm":70,"vdd_v":1.1}]}`); rec.Code != 200 {
		t.Fatalf("POST variant = %d", rec.Code)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("changed scenario reused the cache (computes = %d, want 2)", n)
	}
}

// TestScenariosValidation: the endpoint rejects malformed documents, bad
// selections, and bad mesh sizes before any compute is admitted.
func TestScenariosValidation(t *testing.T) {
	var computes atomic.Int64
	srv := New(Config{Artifacts: []repro.Artifact{counting("v1", &computes, 0, nil)}})
	for _, tc := range []struct {
		target, body string
		want         int
	}{
		{"/api/v1/scenarios", `not json`, 400},
		{"/api/v1/scenarios", `{"name":""}`, 400},
		{"/api/v1/scenarios", `{"name":"x","wat":1}`, 400},
		{"/api/v1/scenarios", `{"name":"x","nodes":[{"node_nm":70,"vdd_v":99}]}`, 400},
		{"/api/v1/scenarios?only=zz", `{"name":"x"}`, 400},
		{"/api/v1/scenarios?mesh-n=abc", `{"name":"x"}`, 400},
		{"/api/v1/scenarios?mesh-n=3", `{"name":"x"}`, 400},
		{"/api/v1/scenarios?only=v1", `{"name":"x"}`, 200},
	} {
		rec := postScenario(t, srv, tc.target, tc.body)
		if rec.Code != tc.want {
			t.Errorf("POST %s body=%q = %d, want %d (%s)", tc.target, tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
	// Oversized bodies stop at the byte reader, not in the parser.
	big := `{"name":"x","notes":["` + strings.Repeat("a", 1<<20) + `"]}`
	if rec := postScenario(t, srv, "/api/v1/scenarios", big); rec.Code != 413 {
		t.Errorf("oversized POST = %d, want 413", rec.Code)
	}
	// The method gate holds: GET on the collection is not allowed.
	if rec := get(t, srv.Handler(), "/api/v1/scenarios", nil); rec.Code != 405 {
		t.Errorf("GET /api/v1/scenarios = %d, want 405", rec.Code)
	}
}

// brokenBody fails mid-read with an ordinary (non-byte-limit) error, the
// shape a client hangup or chunked-encoding fault takes.
type brokenBody struct{}

func (brokenBody) Read([]byte) (int, error) { return 0, errors.New("peer reset the stream") }

// TestScenariosBodyErrorMapping pins the bodyErrStatus split on both
// POST endpoints: only *http.MaxBytesError maps to 413; every other
// body-read failure is the client's 400, never a 413.
func TestScenariosBodyErrorMapping(t *testing.T) {
	srv := New(Config{Artifacts: []repro.Artifact{}, JobWorkers: 1})
	defer srv.Close()
	oversized := `{"name":"x","notes":["` + strings.Repeat("a", 1<<20) + `"]}`
	for _, tc := range []struct {
		name, target string
		body         io.Reader
		want         int
	}{
		{"scenarios oversized", "/api/v1/scenarios", strings.NewReader(oversized), 413},
		{"scenarios broken read", "/api/v1/scenarios", brokenBody{}, 400},
		{"jobs oversized", "/api/v1/jobs", strings.NewReader(oversized), 413},
		{"jobs broken read", "/api/v1/jobs", brokenBody{}, 400},
	} {
		req := httptest.NewRequest("POST", tc.target, tc.body)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: POST = %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestScenarioLabelCardinality: the metrics label folds sweep suffixes into
// the base name and caps distinct names at maxScenarioLabels.
func TestScenarioLabelCardinality(t *testing.T) {
	srv := New(Config{Artifacts: []repro.Artifact{}})
	if got := srv.scenarioLabel("mix/vdd=0.800"); got != "mix" {
		t.Errorf("variant label = %q, want mix", got)
	}
	for i := 0; i < maxScenarioLabels+10; i++ {
		srv.scenarioLabel(fmt.Sprintf("hostile-%03d", i))
	}
	if got := srv.scenarioLabel("one-more"); got != "other" {
		t.Errorf("past the cap, label = %q, want other", got)
	}
	// Already-admitted names keep their own series.
	if got := srv.scenarioLabel("mix"); got != "mix" {
		t.Errorf("admitted name folded to %q", got)
	}
}

// TestScenariosCommittedFileOverHTTP is the end-to-end path of the CI
// smoke: the committed ext65.json posted against the real registry, one
// cheap artifact, typed results with the scenario stamped and the scenario's
// own checks applied.
func TestScenariosCommittedFileOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a real artifact; run without -short")
	}
	body, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "ext65.json"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	rec := postScenario(t, srv, "/api/v1/scenarios?only=c7", string(body))
	if rec.Code != 200 {
		t.Fatalf("POST = %d (%s)", rec.Code, rec.Body.String())
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1 (ext65 has no sweep)", len(lines))
	}
	if lines[0].Error != "" {
		t.Fatalf("variant error: %s", lines[0].Error)
	}
	if len(lines[0].Artifacts) != 1 || lines[0].Artifacts[0].ID != "c7" {
		t.Fatalf("unexpected artifacts in line: %+v", lines[0].Artifacts)
	}
	res := lines[0].Artifacts[0]
	if res.Scenario != "ext65" {
		t.Fatalf("result scenario = %q, want ext65", res.Scenario)
	}
	// The scenario's expectation replaced the paper checks and passed.
	checked := false
	for _, it := range res.Items {
		if it.Claim == nil {
			continue
		}
		for _, f := range it.Claim.Findings {
			if f.Check != nil {
				checked = true
				if !f.Check.Pass {
					t.Errorf("scenario check %s failed: %g vs %g", f.Key, f.Value, f.Check.Paper)
				}
			}
		}
	}
	if !checked {
		t.Error("no scenario checks present on c7 under ext65")
	}
}

// TestScenariosSharedMeshSweepSolvesOnce pins honest mesh counters: a
// 9-step clock sweep of c8 at mesh-n=255 leaves the power grid alone, so
// its variants share one mesh — one solve runs, the other eight variants
// are memo hits. A cache flush drops the memo too, so the same sweep
// afterwards solves once again.
func TestScenariosSharedMeshSweepSolvesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a real 255×255 mesh; run without -short")
	}
	repro.ResetCache()
	defer repro.ResetCache()
	srv := New(Config{})
	body := `{"name":"shared","sweep":{"param":"clock","steps":9,"span_pct":20,"nodes":[35]}}`
	for round := 0; round < 2; round++ {
		solves := metricValue(t, srv, "nanoreprod_mesh_solves_total")
		hits := metricValue(t, srv, "nanoreprod_mesh_solve_memo_hits_total")
		rec := postScenario(t, srv, "/api/v1/scenarios?only=c8&mesh-n=255", body)
		if rec.Code != 200 {
			t.Fatalf("round %d: POST = %d (%s)", round, rec.Code, rec.Body.String())
		}
		lines := decodeLines(t, rec.Body)
		if len(lines) != 9 {
			t.Fatalf("round %d: got %d lines, want 9", round, len(lines))
		}
		for i, line := range lines {
			if line.Error != "" || len(line.Artifacts) != 1 {
				t.Fatalf("round %d line %d: error %q, %d artifacts", round, i, line.Error, len(line.Artifacts))
			}
		}
		dSolves := metricValue(t, srv, "nanoreprod_mesh_solves_total") - solves
		dHits := metricValue(t, srv, "nanoreprod_mesh_solve_memo_hits_total") - hits
		if dSolves != 1 || dHits != 8 {
			t.Errorf("round %d: sweep recorded %g mesh solves and %g memo hits, want 1 and 8", round, dSolves, dHits)
		}
		flush := httptest.NewRequest("POST", "/api/v1/cache/flush", nil)
		frec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(frec, flush)
		if frec.Code != 200 {
			t.Fatalf("flush = %d", frec.Code)
		}
	}
}

// metricValue reads one unlabeled series from the server's /metrics text.
func metricValue(t *testing.T, srv *Server, name string) float64 {
	t.Helper()
	var met bytes.Buffer
	srv.met.reg.WritePrometheus(&met)
	for _, l := range strings.Split(met.String(), "\n") {
		if v, ok := strings.CutPrefix(l, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not exported", name)
	return 0
}

// grepLines filters s to lines containing sub (test-failure readability).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestScenariosSweepOneAdmissionJobsWide: a sweep is admitted once and its
// variant × artifact computes run on one Jobs-wide pool, variant-major —
// with Jobs 2 exactly two computes run at once, the first two to start
// are variant 0's, and every gate unit is back once the stream ends.
func TestScenariosSweepOneAdmissionJobsWide(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var (
		mu             sync.Mutex
		started        []string
		inFlight, peak int
		release        = make(chan struct{})
		twoStarted     = make(chan struct{})
		twoStartedOnce sync.Once
	)
	art := func(id string) repro.Artifact {
		return repro.Artifact{ID: id, Title: id, Compute: func(opts repro.Options) (*result.Result, error) {
			mu.Lock()
			started = append(started, opts.Scenario.Name)
			inFlight++
			peak = max(peak, inFlight)
			if len(started) == 2 {
				twoStartedOnce.Do(func() { close(twoStarted) })
			}
			mu.Unlock()
			<-release
			mu.Lock()
			inFlight--
			mu.Unlock()
			r := &result.Result{}
			r.AddTable(&result.Table{Title: id, Headers: []string{"h"}, Rows: [][]string{{"v"}}})
			return r, nil
		}}
	}
	srv := New(Config{Artifacts: []repro.Artifact{art("jw1"), art("jw2")}, Jobs: 2})
	body := `{"name":"wide","sweep":{"param":"vdd","steps":9,"span_pct":20,"nodes":[70]}}`
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- postScenario(t, srv, "/api/v1/scenarios", body) }()
	select {
	case <-twoStarted:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the sweep never had two computes running")
	}
	mu.Lock()
	first := append([]string(nil), started[:2]...)
	mu.Unlock()
	close(release)
	rec := <-done
	if rec.Code != 200 {
		t.Fatalf("POST = %d (%s)", rec.Code, rec.Body.String())
	}
	if lines := decodeLines(t, rec.Body); len(lines) != 9 {
		t.Fatalf("got %d lines, want 9", len(lines))
	}
	want := "wide/vdd=0.800"
	if first[0] != want || first[1] != want {
		t.Errorf("first computes started for %v, want both artifacts of %s", first, want)
	}
	if peak != 2 {
		t.Errorf("peak concurrent computes %d, want Jobs = 2", peak)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.gate.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gate holds %d units after the sweep ended", srv.gate.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScenariosStreamFlushesEachLine: over a real connection, the first
// variant's line is readable while a later variant's compute is still
// blocked — each line is flushed as it is written, not held in the
// server's buffer until the sweep ends.
func TestScenariosStreamFlushesEachLine(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	hold := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(hold) }) }
	defer unblock()
	first := "flush/vdd=0.800"
	art := repro.Artifact{ID: "fl1", Title: "fl1", Compute: func(opts repro.Options) (*result.Result, error) {
		if opts.Scenario.Name != first {
			<-hold
		}
		r := &result.Result{}
		r.AddTable(&result.Table{Title: "fl1", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
	srv := New(Config{Artifacts: []repro.Artifact{art}, Jobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"name":"flush","sweep":{"param":"vdd","steps":9,"span_pct":20,"nodes":[70]}}`
	type read struct {
		resp *http.Response
		br   *bufio.Reader
		line []byte
		err  error
	}
	got := make(chan read, 1)
	go func() {
		// The status line and headers travel with the first flush, so the
		// POST itself is inside the deadline below.
		resp, err := http.Post(ts.URL+"/api/v1/scenarios", "application/json", strings.NewReader(body))
		if err != nil {
			got <- read{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		b, err := br.ReadBytes('\n')
		got <- read{resp, br, b, err}
	}()
	var r read
	select {
	case r = <-got:
	case <-time.After(10 * time.Second):
		unblock()
		if r = <-got; r.resp != nil {
			r.resp.Body.Close()
		}
		t.Fatal("first sweep line not delivered while later variants compute")
	}
	if r.resp != nil {
		defer r.resp.Body.Close()
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	var line variantLine
	if err := json.Unmarshal(r.line, &line); err != nil || line.Scenario != first || line.Error != "" {
		t.Fatalf("first line %s (%v), want %s without error", r.line, err, first)
	}
	br := r.br
	unblock()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(rest, []byte("\n")); n != 8 {
		t.Fatalf("%d more lines, want 8", n)
	}
}

// TestScenariosAdmissionAndPanics: a sweep that cannot be admitted before
// its deadline answers 503 with Retry-After (the header has not committed),
// and an admitted sweep whose artifact panics still streams every line,
// each carrying the failure in-band.
func TestScenariosAdmissionAndPanics(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	boom := repro.Artifact{ID: "boom", Title: "boom", Compute: func(repro.Options) (*result.Result, error) {
		panic("kaboom")
	}}
	srv := New(Config{Artifacts: []repro.Artifact{boom}, GateUnits: 1, Timeout: 200 * time.Millisecond})
	body := `{"name":"adm","sweep":{"param":"vdd","steps":3,"span_pct":20,"nodes":[70]}}`
	release, err := srv.gate.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := postScenario(t, srv, "/api/v1/scenarios", body)
	release()
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("sweep behind a full gate = %d, Retry-After %q, want 503 and 1", rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = postScenario(t, srv, "/api/v1/scenarios", body)
	if rec.Code != 200 {
		t.Fatalf("POST = %d (%s)", rec.Code, rec.Body.String())
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		if !strings.Contains(line.Error, "boom: compute panicked") || len(line.Artifacts) != 0 {
			t.Errorf("line %d: error %q, %d artifacts; want the panic in-band", i, line.Error, len(line.Artifacts))
		}
	}
}

// TestScenariosDeadlineMidSweep: when the request deadline passes while a
// sweep variant is still computing, the stream still carries one line per
// variant — the settled ones with their results, the rest with the
// deadline error in-band — variants that had not started are never
// computed, and the gate units come back once the abandoned compute
// drains.
func TestScenariosDeadlineMidSweep(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	hold := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(hold) }) }
	defer unblock()
	first := "late/vdd=0.800"
	var (
		mu       sync.Mutex
		computed []string
	)
	art := repro.Artifact{ID: "dl", Title: "dl", Compute: func(opts repro.Options) (*result.Result, error) {
		mu.Lock()
		computed = append(computed, opts.Scenario.Name)
		mu.Unlock()
		if opts.Scenario.Name != first {
			<-hold
		}
		r := &result.Result{}
		r.AddTable(&result.Table{Title: "dl", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
	srv := New(Config{Artifacts: []repro.Artifact{art}, Jobs: 1, Timeout: 200 * time.Millisecond})
	body := `{"name":"late","sweep":{"param":"vdd","steps":3,"span_pct":20,"nodes":[70]}}`
	rec := postScenario(t, srv, "/api/v1/scenarios", body)
	if rec.Code != 200 {
		t.Fatalf("POST = %d (%s)", rec.Code, rec.Body.String())
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if lines[0].Scenario != first || lines[0].Error != "" || len(lines[0].Artifacts) != 1 {
		t.Errorf("line 0 = %+v, want %s with its result", lines[0], first)
	}
	for i, line := range lines[1:] {
		if line.Error != "request deadline exceeded before this variant was collected" || len(line.Artifacts) != 0 {
			t.Errorf("line %d: error %q, %d artifacts; want the deadline in-band", i+1, line.Error, len(line.Artifacts))
		}
	}
	unblock()
	deadline := time.Now().Add(10 * time.Second)
	for srv.gate.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gate holds %d units after the sweep drained", srv.gate.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{first, "late/vdd=1.000"}; fmt.Sprint(computed) != fmt.Sprint(want) {
		t.Errorf("computed variants %v, want %v (the unstarted variant must never compute)", computed, want)
	}
}
