// Package runner is the parallel execution engine of the reproduction
// harness. It runs independent jobs — tables, figures, claim groups — on a
// bounded worker pool while preserving the deterministic output order of a
// serial run: every job writes to its own buffer, and buffers are released
// to the sink strictly in submission order. One failed job does not abort
// the others; per-job errors are collected and reported together.
package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one independent unit of work. Run writes the job's complete output
// to w (a private buffer, never shared between jobs) and returns an error on
// failure. Partial output written before the failure is still emitted, so a
// job that dies mid-figure shows exactly how far it got.
type Job struct {
	ID  string
	Run func(w io.Writer) error
}

// Result pairs a job with its captured output and outcome, in submission
// order.
type Result struct {
	ID     string
	Output []byte
	Err    error
}

// Pool executes jobs with at most Workers goroutines. Workers ≤ 0 selects
// runtime.NumCPU(). The zero value is ready to use.
type Pool struct {
	Workers int
}

func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.NumCPU()
}

// RunToContext runs every job and returns the results in submission order,
// with streaming emission: each job's output is copied to sink as soon as
// the job and all jobs before it have finished, so the sink sees the exact
// byte sequence of a serial run regardless of worker count or completion
// order. A nil sink skips emission (output stays in the results). The
// returned error reports sink write failures only; per-job errors are in
// the results (aggregate them with Errs). Cancellation follows RunEach.
func (p Pool) RunToContext(ctx context.Context, sink io.Writer, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	var sinkErr error
	p.RunEach(ctx, jobs, func(i int, r Result) {
		results[i] = r
		if sink == nil || sinkErr != nil {
			return
		}
		if _, err := sink.Write(r.Output); err != nil {
			// Keep draining the remaining jobs (they are already running)
			// but stop writing to a broken sink.
			sinkErr = fmt.Errorf("runner: writing output of %s: %w", r.ID, err)
		}
	})
	return results, sinkErr
}

// RunEach runs every job and calls settled once per job, in submission
// order, on the caller's goroutine: job i settles as soon as it and every
// job before it have finished. Jobs that have not started when ctx is
// canceled are skipped and settle with ctx's error. Jobs already executing
// run to completion (they hold gate/pool resources that must wind down
// normally), and RunEach returns only after the last of them has. Jobs
// start in submission order — each worker claims the next unclaimed job —
// so the first jobs to settle are the first to be computed. Job panics are
// recovered into errors so a crashing job cannot take down the others.
func (p Pool) RunEach(ctx context.Context, jobs []Job, settled func(i int, r Result)) {
	n := len(jobs)
	results := make([]Result, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(p.workers(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = Result{ID: jobs[i].ID, Err: err}
				} else {
					var buf bytes.Buffer
					err := runJob(jobs[i], &buf)
					results[i] = Result{ID: jobs[i].ID, Output: buf.Bytes(), Err: err}
				}
				close(done[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-done[i]
		settled(i, results[i])
	}
	wg.Wait()
}

// runJob invokes the job with panic recovery.
func runJob(j Job, w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compute panicked: %v", r)
		}
	}()
	return j.Run(w)
}

// Errs aggregates the per-job failures of a run into a single error (nil if
// every job succeeded). Each failure keeps its job ID so the operator can
// re-run just the broken artifacts.
func Errs(results []Result) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.ID, r.Err))
		}
	}
	return errors.Join(errs...)
}
