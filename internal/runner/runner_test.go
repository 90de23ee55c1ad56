package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

// spinJobs builds n jobs whose completion order is scrambled by busy work so
// ordered emission is actually exercised (job i does more work than job i+1).
func spinJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			ID: fmt.Sprintf("j%d", i),
			Run: func(w io.Writer) error {
				s := 0.0
				for k := 0; k < (n-i)*20000; k++ {
					s += float64(k)
				}
				_, err := fmt.Fprintf(w, "job %d (%.0f)\n", i, s)
				return err
			},
		}
	}
	return jobs
}

func TestRunToPreservesOrder(t *testing.T) {
	jobs := spinJobs(16)
	var serial, parallel bytes.Buffer
	if _, err := (Pool{Workers: 1}).RunTo(&serial, jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := (Pool{Workers: 8}).RunTo(&parallel, jobs); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel output differs from serial:\n%q\nvs\n%q", parallel.String(), serial.String())
	}
	for i := 0; i < 16; i++ {
		want := fmt.Sprintf("job %d ", i)
		line := strings.Split(serial.String(), "\n")[i]
		if !strings.HasPrefix(line, want) {
			t.Fatalf("line %d = %q, want prefix %q", i, line, want)
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(io.Writer) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			s := 0.0
			for k := 0; k < 50000; k++ {
				s += float64(k)
			}
			_ = s
			inFlight.Add(-1)
			return nil
		}}
	}
	Pool{Workers: workers}.Run(jobs)
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", p, workers)
	}
}

func TestErrorsDoNotAbortOtherJobs(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{ID: "ok1", Run: func(w io.Writer) error { fmt.Fprintln(w, "one"); return nil }},
		{ID: "bad", Run: func(w io.Writer) error { fmt.Fprintln(w, "partial"); return boom }},
		{ID: "panics", Run: func(io.Writer) error { panic("kaboom") }},
		{ID: "ok2", Run: func(w io.Writer) error { fmt.Fprintln(w, "two"); return nil }},
	}
	var out bytes.Buffer
	results, err := Pool{Workers: 4}.RunTo(&out, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Every job ran; partial output of the failed job is kept.
	if got := out.String(); got != "one\npartial\ntwo\n" {
		t.Fatalf("output = %q", got)
	}
	agg := Errs(results)
	if agg == nil {
		t.Fatal("expected aggregated errors")
	}
	if !errors.Is(agg, boom) {
		t.Fatalf("aggregate %v does not wrap the job error", agg)
	}
	for _, frag := range []string{"bad:", "panics:", "kaboom"} {
		if !strings.Contains(agg.Error(), frag) {
			t.Fatalf("aggregate %q missing %q", agg.Error(), frag)
		}
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("healthy jobs must not inherit errors: %v, %v", results[0].Err, results[3].Err)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	if w := (Pool{}).workers(); w < 1 {
		t.Fatalf("default worker count %d", w)
	}
	if w := (Pool{Workers: -3}).workers(); w < 1 {
		t.Fatalf("negative Workers must fall back to NumCPU, got %d", w)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("sink closed")
	}
	f.after--
	return len(p), nil
}

func TestSinkErrorReported(t *testing.T) {
	jobs := spinJobs(4)
	_, err := Pool{Workers: 2}.RunTo(&failWriter{after: 1}, jobs)
	if err == nil || !strings.Contains(err.Error(), "sink closed") {
		t.Fatalf("sink failure not reported: %v", err)
	}
}

// TestJobsStartInSubmissionOrder: the first Workers jobs to start are the
// first Workers submitted, so ordered emission is never stuck behind a
// late job that happened to be scheduled early.
func TestJobsStartInSubmissionOrder(t *testing.T) {
	const workers, n = 2, 16
	started := make(chan int, n)
	release := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(io.Writer) error {
			started <- i
			<-release
			return nil
		}}
	}
	finished := make(chan struct{})
	go func() {
		Pool{Workers: workers}.Run(jobs)
		close(finished)
	}()
	first := map[int]bool{<-started: true, <-started: true}
	close(release)
	<-finished
	if !first[0] || !first[1] {
		t.Fatalf("first jobs started were %v, want 0 and 1", first)
	}
}
