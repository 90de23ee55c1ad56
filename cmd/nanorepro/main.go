// Command nanorepro regenerates every table and figure of "Future
// Performance Challenges in Nanometer Design" (DAC 2001) from the model
// stack, plus the paper's quantified in-text claims (C1–C13 of DESIGN.md).
//
// Each artifact computes into a typed result (internal/result) and is then
// encoded (internal/render) in the format -format selects: the classic
// terminal text, a single JSON document, or CSV blocks. Computation is
// memoized process-wide, so every format of one run computes each artifact
// exactly once.
//
// Artifacts are independent, so they compute concurrently on a bounded
// worker pool (repro.Sweep). Output order — and every output byte —
// is identical for any -jobs value: results settle in canonical order and
// are encoded (render.Report) one variant at a time. A failed artifact does
// not abort the run; all per-artifact errors are aggregated and reported
// at the end, and the exit status reflects them.
//
// Usage:
//
//	nanorepro                 # print everything, one worker per CPU
//	nanorepro -format json    # the same artifacts as one JSON document
//	nanorepro -format csv     # tables, figures, and claim findings as CSV
//	nanorepro -jobs 1         # serial (same bytes, slower)
//	nanorepro -only t2,f3     # select artifacts (t1,t2,f1..f5,c1..c13)
//	nanorepro -csv out/       # text report + per-figure CSV files (a sweep
//	                          # writes out/<variant>/ per variant)
//	nanorepro -plot           # crude terminal plots for the figures
//	nanorepro -v              # append each claim's paper checks
//	nanorepro -scenario scenarios/ext65.json   # compute under a roadmap scenario
//	nanorepro -trace traces/virus.json         # simulate a workload trace
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"

	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
	"nanometer/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nanorepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list artifact ids and exit")
		only    = fs.String("only", "", "comma-separated artifact ids (t1,t2,f1..f5,c1..c13); empty = all")
		format  = fs.String("format", "text", "output format: text, json, or csv")
		csvDir  = fs.String("csv", "", "directory to write figure CSVs into (text format)")
		plot    = fs.Bool("plot", false, "render terminal plots for figures (text format)")
		verbose = fs.Bool("v", false, "append each claim's paper checks (text format)")
		jobs    = fs.Int("jobs", runtime.NumCPU(), "max artifacts computed concurrently (output is identical for any value)")
		meshN   = fs.Int("mesh-n", 0, "power-grid validation mesh nodes per side for c8 (0 = default 41; larger grids refine the 2-D bound)")
		scnPath = fs.String("scenario", "", "roadmap scenario JSON file (see scenarios/); a sweep runs once per variant")
		trcPath = fs.String("trace", "", "workload trace JSON file (see traces/); simulates it and exits non-zero on failed assertions")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nanorepro:", err)
		return 1
	}
	if *list {
		for _, a := range repro.Artifacts() {
			fmt.Fprintf(stdout, "%-4s %s\n", a.ID, a.Title)
		}
		return 0
	}
	arts, err := repro.Select(strings.Split(*only, ","))
	if err != nil {
		return fail(err)
	}
	// Validate user input at the boundary: a nonsense -mesh-n must fail
	// here with a clear message, not deep inside solver setup.
	if err := repro.ValidateMeshN(*meshN); err != nil {
		return fail(err)
	}
	if *format != "text" && (*csvDir != "" || *plot || *verbose) {
		return fail(fmt.Errorf("-csv, -plot, and -v only apply to -format text"))
	}
	if err := render.CheckFormat(*format); err != nil {
		return fail(fmt.Errorf("-format: %w", err))
	}
	text := render.Text{CSVDir: *csvDir, Plot: *plot, Verbose: *verbose}
	if *trcPath != "" {
		if *only != "" || *scnPath != "" {
			return fail(fmt.Errorf("-trace is its own mode; it does not combine with -only or -scenario"))
		}
		return runTrace(*trcPath, *format, text, stdout, stderr)
	}
	// The nil scenario (no -scenario flag) is the base roadmap and the
	// byte-identity path; a scenario with a sweep runs once per variant, in
	// grid order.
	variants := []*scenario.Scenario{nil}
	if *scnPath != "" {
		s, err := scenario.Load(*scnPath)
		if err != nil {
			return fail(err)
		}
		if variants, err = s.Variants(); err != nil {
			return fail(err)
		}
	}
	// Each variant of a sweep writes its figure CSVs into its own
	// subdirectory, so no variant overwrites another's files. Scenario
	// names are validated path-safe, so the join stays inside -csv.
	csvDirs := make([]string, len(variants))
	for i, v := range variants {
		switch {
		case *csvDir == "":
			continue
		case len(variants) > 1:
			csvDirs[i] = filepath.Join(*csvDir, v.Name)
		default:
			csvDirs[i] = *csvDir
		}
		if err := os.MkdirAll(csvDirs[i], 0o755); err != nil {
			return fail(err)
		}
	}

	// All variants compute in ONE pool run (variant-major, so output is
	// byte-identical to a per-variant loop at any -jobs): workers stay
	// busy across variant boundaries. Text and CSV stream one variant at a
	// time as each settles; JSON is one document after the last.
	out := bufio.NewWriter(stdout)
	var failures []string
	var all []*result.Result
	opts := repro.Options{MeshN: *meshN}
	repro.Sweep(context.Background(), runner.Pool{Workers: *jobs}, arts, opts, variants, func(i int, res []*result.Result, err error) {
		if *format == "json" {
			all = append(all, res...)
		} else {
			vt := text
			vt.CSVDir = csvDirs[i]
			err = errors.Join(err, render.Report(out, *format, vt, res))
			out.Flush() // a write error sticks; the last Flush reports it
		}
		if err == nil {
			return
		}
		prefix := ""
		if len(variants) > 1 {
			prefix = variants[i].Name + ": "
		}
		for _, line := range strings.Split(err.Error(), "\n") {
			failures = append(failures, prefix+line)
		}
	})
	if *format == "json" {
		if err := render.Report(out, *format, text, all); err != nil {
			return fail(err)
		}
	}
	if err := out.Flush(); err != nil {
		return fail(err)
	}
	if len(failures) > 0 {
		fmt.Fprintln(stderr, "nanorepro: some artifacts failed:")
		for _, line := range failures {
			fmt.Fprintln(stderr, "  "+line)
		}
		return 1
	}
	return 0
}

// runTrace is the -trace mode: simulate one workload-trace file (the same
// document POST /api/v1/jobs accepts) and print its findings in the
// selected format (JSON as the bare result, as the jobs API serves it).
// Ctrl-C cancels the simulation mid-trace; a trace whose assertions fail
// exits non-zero after printing each failed check.
func runTrace(path, format string, text render.Text, stdout, stderr io.Writer) int {
	tr, err := trace.Load(path)
	if err != nil {
		fmt.Fprintln(stderr, "nanorepro:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := tr.Run(ctx, nil)
	if err == nil {
		if format == "json" {
			err = render.JSON{Indent: "  "}.Encode(stdout, res)
		} else {
			err = render.Report(stdout, format, text, []*result.Result{res})
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "nanorepro:", err)
		return 1
	}
	if failed := trace.FailedChecks(res); len(failed) > 0 {
		fmt.Fprintf(stderr, "nanorepro: trace %s: %d assertion(s) failed:\n", tr.Name, len(failed))
		for _, f := range failed {
			fmt.Fprintf(stderr, "  %s = %.6g, want %.6g ±%.3g rel\n",
				f.Key, f.Value, f.Check.Paper, f.Check.RelTol)
		}
		return 1
	}
	return 0
}
