package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"nanometer/internal/core"
	"nanometer/internal/cvs"
	"nanometer/internal/dualvth"
	"nanometer/internal/experiments"
	"nanometer/internal/libopt"
	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/resize"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
	"nanometer/internal/sta"
)

// reportRig runs the report-cold operation: what a nanorepro user waits
// for. Each operation drops the result cache, computes all artifacts on a
// pool of nproc workers and encodes text, JSON and CSV, which must equal
// the committed golden report byte for byte.
type reportRig struct {
	pool   runner.Pool
	arts   []repro.Artifact
	golden [3][]byte // text, json, csv
}

func newReportRig(root string) (*reportRig, error) {
	r := &reportRig{pool: runner.Pool{Workers: runtime.NumCPU()}, arts: repro.Artifacts()}
	for i, name := range []string{"report.golden", "report.golden.json", "report.golden.csv"} {
		b, err := os.ReadFile(filepath.Join(root, "internal", "repro", "testdata", name))
		if err != nil {
			return nil, err
		}
		r.golden[i] = b
	}
	return r, nil
}

// compute runs every artifact through the cache on the pool. Traced, it
// wraps each artifact's ComputeCached in a span (the same jobs
// ComputeAllCtx builds); untraced, it calls ComputeAllCtx itself.
func (r *reportRig) compute(ctx context.Context, tr *tracer, parent int) ([]*result.Result, error) {
	if tr == nil {
		return repro.ComputeAllCtx(ctx, r.pool, r.arts, repro.Options{})
	}
	out := make([]*result.Result, len(r.arts))
	jobs := make([]runner.Job, len(r.arts))
	for i, a := range r.arts {
		i, a := i, a
		jobs[i] = runner.Job{ID: a.ID, Run: func(io.Writer) error {
			id := tr.begin("repro.compute."+a.ID, parent)
			defer tr.end(id)
			res, err := a.ComputeCached(repro.Options{})
			out[i] = res
			return err
		}}
	}
	results, _ := r.pool.RunToContext(ctx, nil, jobs)
	return out, runner.Errs(results)
}

// encode renders the results as nanorepro does for each format.
func encodeReport(results []*result.Result, format string) ([]byte, error) {
	var buf bytes.Buffer
	if format == "json" {
		err := render.JSON{Indent: "  "}.EncodeReport(&buf, &result.Report{Artifacts: results})
		return buf.Bytes(), err
	}
	for _, res := range results {
		var err error
		if format == "csv" {
			err = render.CSV{}.Encode(&buf, res)
		} else {
			err = render.Text{}.Encode(&buf, res)
		}
		if err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

var reportFormats = [3]string{"text", "json", "csv"}

// encodeRepeats is how many times each report-cold operation's results
// are encoded again, untimed by the operation, for the encode metric.
const encodeRepeats = 20

// cold runs one report-cold operation, checks it against the goldens and
// returns its wall time.
func (r *reportRig) cold(ctx context.Context, tr *tracer) (total time.Duration, results []*result.Result, err error) {
	start := time.Now()
	root := tr.begin("report", 0)
	defer tr.end(root)
	repro.ResetCache()
	cid := tr.begin("repro.compute_all", root)
	results, err = r.compute(ctx, tr, cid)
	tr.end(cid)
	if err != nil {
		return 0, nil, err
	}
	var bodies [3][]byte
	for i, f := range reportFormats {
		eid := tr.begin("render.encode_report."+f, root)
		bodies[i], err = encodeReport(results, f)
		tr.end(eid)
		if err != nil {
			return 0, nil, err
		}
	}
	total = time.Since(start)
	for i, f := range reportFormats {
		if !bytes.Equal(bodies[i], r.golden[i]) {
			return total, results, fmt.Errorf("report-cold: %s report differs from internal/repro/testdata golden", f)
		}
	}
	return total, results, nil
}

// setupReport builds a rig and runs one untimed warm-up report, so timed
// operations all start with the process-wide laboratory memo filled.
func setupReport(c config, o *outcome) (*reportRig, time.Duration, error) {
	start := time.Now()
	r, err := newReportRig(c.root)
	if err != nil {
		return nil, 0, err
	}
	_, _, err = r.cold(context.Background(), nil)
	o.check(err)
	return r, time.Since(start), nil
}

// reportGroup measures report-cold. Untraced it reports the end-to-end
// metrics; traced it alternates traced and untraced operations (their
// medians differ by the tracing overhead), reports per-artifact compute
// spans, and replays c3 and c6 layer by layer. A probe pass runs one
// traced and one untraced operation.
func reportGroup(c config, o *outcome, probe bool) error {
	ctx := context.Background()
	var setups []float64
	if !probe && c.tr == nil && !c.setupOnly {
		var err error
		if setups, err = childSetups(c, o); err != nil {
			return err
		}
	}
	rig, d, err := setupReport(c, o)
	if err != nil {
		return err
	}
	setups = append(setups, d.Seconds())
	if c.setupOnly {
		o.put("setup_s", "s", d.Seconds())
		return nil
	}

	var totals, encs, untraced []float64
	var last []*result.Result
	var opAlloc uint64
	mem := startMem()
	start := time.Now()
	for i := 0; i < 2 || (!probe && time.Since(start) < c.seconds); i++ {
		var tr *tracer
		if c.tr != nil && i%2 == 0 {
			tr = c.tr
		}
		a0 := readMetric(heapAllocs)
		total, results, err := rig.cold(ctx, tr)
		opAlloc += readMetric(heapAllocs) - a0
		o.check(err)
		if err != nil {
			continue
		}
		last = results
		if c.tr != nil && tr == nil {
			untraced = append(untraced, total.Seconds())
			continue
		}
		totals = append(totals, ms(total))
		if tr == nil {
			// One encode inside the operation is too short to time
			// steadily; repeat it outside the operation's timing.
			for k := 0; k < encodeRepeats; k++ {
				start := time.Now()
				for _, f := range reportFormats {
					if _, err := encodeReport(results, f); err != nil {
						return err
					}
				}
				encs = append(encs, ms(time.Since(start)))
			}
		}
	}
	elapsed := time.Since(start)
	mem.stopMem()
	n := len(totals) + len(untraced)
	if n == 0 || last == nil {
		return fmt.Errorf("report-cold: no operation succeeded")
	}

	if c.tr == nil {
		o.put("setup_s", "s", median(setups))
		o.put("p50_ms", "ms", median(totals))
		o.put("tail_ms", "ms", quantile(totals, 0.9))
		o.put("aux_p50_ms", "ms", median(encs))
		o.put("alloc_mb_per_op", "MB", float64(opAlloc)/1e6/float64(n))
		o.put("heap_peak_mb", "MB", mem.peakMB())
		fmt.Printf("report-cold: %d operations in %.2f s (tail is p90)\n", n, elapsed.Seconds())
		return nil
	}

	spans := c.tr.snapshot()
	wall := median(durations(spans, "report"))
	o.put("report.traced_p50_s", "s", wall)
	o.put("trace.overhead_s", "s", wall-median(untraced))
	var summed float64
	for _, a := range rig.arts {
		d := median(durations(spans, "repro.compute."+a.ID))
		summed += d
		o.put("repro.compute_s."+a.ID, "s", d)
		o.share["repro.compute_s."+a.ID] = d / wall
	}
	var eff []float64
	for _, s := range spans {
		if s.Name == "repro.compute_all" {
			var busy float64
			for _, k := range spans {
				if k.Parent == s.ID {
					busy += k.EndS - k.StartS
				}
			}
			eff = append(eff, busy/(float64(rig.pool.Workers)*(s.EndS-s.StartS)))
		}
	}
	o.put("runner.parallel_efficiency", "ratio", median(eff))
	c3c6 := (median(durations(spans, "repro.compute.c3")) + median(durations(spans, "repro.compute.c6"))) / summed
	o.put("repro.c3_c6_compute_share", "ratio", c3c6)
	for _, f := range reportFormats {
		d := median(durations(spans, "render.encode_report."+f))
		o.put("render.encode_ms.report_"+f, "ms", d*1e3)
		o.share["render.encode_ms.report_"+f] = d / wall
	}
	if err := replay(c, o, last, wall); err != nil {
		return err
	}
	tryUpdateStream(c, o)
	return nil
}

// finding returns a claim finding of an artifact result.
func finding(results []*result.Result, id, key string) (result.Finding, error) {
	for _, r := range results {
		if r == nil || r.ID != id {
			continue
		}
		for _, it := range r.Items {
			if it.Claim != nil {
				if f, ok := it.Claim.Find(key); ok {
					return f, nil
				}
			}
		}
	}
	return result.Finding{}, fmt.Errorf("%s has no finding %q", id, key)
}

// expectFindings compares replayed values with an artifact's findings,
// which must match exactly.
func expectFindings(results []*result.Result, id string, want map[string]float64) error {
	for key, v := range want {
		f, err := finding(results, id, key)
		if err != nil {
			return err
		}
		if f.Value != v {
			return fmt.Errorf("replay of %s/%s gave %v, artifact says %v", id, key, v, f.Value)
		}
	}
	return nil
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// timed runs f inside a span and returns its duration in seconds.
func timed(tr *tracer, name string, parent int, f func() error) (float64, error) {
	id := tr.begin(name, parent)
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	tr.end(id)
	return d, err
}

// circuit builds the benchmark netlist of the circuit claims through the
// public netlist and sta calls, exactly as the experiments build it.
func circuit(tr *tracer, parent int, s experiments.CircuitSetup) (*netlist.Circuit, float64, error) {
	lab, err := (*scenario.Scenario)(nil).Resolve()
	if err != nil {
		return nil, 0, err
	}
	var c *netlist.Circuit
	d, err := timed(tr, "netlist.generate", parent, func() error {
		tech, err := netlist.NewTechIn(lab, s.NodeNM, s.LowVddRatio)
		if err != nil {
			return err
		}
		p := netlist.DefaultGenParams()
		p.Gates, p.Levels, p.ShortPathFraction, p.Seed = s.Gates, 30, 0.5, s.Seed
		c, err = netlist.Generate(tech, p)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	_, err = sta.SetPeriodFromCritical(c, s.PeriodGuard)
	return c, d, err
}

// replay re-runs the c3 (library optimization) and c6 (re-sizing vs
// multi-Vdd) experiments layer by layer and requires their findings to
// equal the artifacts' exactly; it also times the cvs, dualvth and power
// layers on the same netlist.
func replay(c config, o *outcome, results []*result.Result, wall float64) error {
	tr := c.tr
	root := tr.begin("replay", 0)
	defer tr.end(root)
	setup := experiments.DefaultCircuitSetup()
	base, genS, err := circuit(tr, root, setup)
	if err != nil {
		return err
	}
	o.put("netlist.generate_ms", "ms", genS*1e3)
	staS, _ := timed(tr, "sta.analyze", root, func() error { sta.Analyze(base); return nil })
	o.put("sta.analyze_ms", "ms", staS*1e3)
	pc := base.Clone()
	powS, _ := timed(tr, "power.analyze", root, func() error { power.Analyze(pc, 1/pc.ClockPeriodS); return nil })
	o.put("power.analyze_ms", "ms", powS*1e3)

	// c3: oversized start, one sizing run per library granularity.
	c3 := base.Clone()
	for i := range c3.Gates {
		c3.Gates[i].Size = 8
	}
	if _, err := sta.SetPeriodFromCritical(c3, setup.PeriodGuard); err != nil {
		return err
	}
	libs := []libopt.Library{
		libopt.Geometric("coarse legacy (min 4, ratio 2)", 4, 64, 2),
		libopt.Geometric("rich modern (min 1, ratio 1.3)", 1, 64, 1.3),
		libopt.Continuous(0.25),
	}
	want := map[string]float64{}
	var pw [3]float64
	for i, lib := range libs {
		name := [3]string{"coarse", "rich", "continuous"}[i]
		var res *libopt.Result
		d, err := timed(tr, "libopt.size."+name, root, func() error {
			var err error
			res, err = libopt.SizeWithLibrary(c3.Clone(), lib, 0)
			return err
		})
		if err != nil {
			return err
		}
		o.put("libopt.size_s."+name, "s", d)
		o.share["libopt.size_s."+name] = d / wall
		pw[i] = res.Power.TotalW()
		k := fmt.Sprintf("lib%d_", i)
		want[k+"power_w"], want[k+"size"], want[k+"timing_met"] = pw[i], res.TotalSize, boolValue(res.TimingMet)
	}
	want["continuous_vs_coarse"], want["continuous_vs_rich"] = 1-pw[2]/pw[0], 1-pw[2]/pw[1]
	o.check(expectFindings(results, "c3", want))

	// c6: downsizing, CVS and the combined flow on clones of one netlist,
	// then re-sizing followed by CVS.
	var rz *resize.Result
	rzS, err := timed(tr, "resize.downsize", root, func() error {
		var err error
		rz, err = resize.Downsize(base.Clone(), resize.DefaultOptions())
		return err
	})
	if err != nil {
		return err
	}
	o.put("resize.downsize_s", "s", rzS)
	o.share["resize.downsize_s"] = rzS / wall
	var cv *cvs.Result
	cvsS, err := timed(tr, "cvs.assign", root, func() error {
		var err error
		cv, err = cvs.Assign(base.Clone(), cvs.DefaultOptions())
		return err
	})
	if err != nil {
		return err
	}
	o.put("cvs.assign_ms", "ms", cvsS*1e3)
	o.share["cvs.assign_ms"] = cvsS / wall
	flow, err := core.RunFlow(base.Clone(), core.DefaultFlowOptions())
	if err != nil {
		return err
	}
	first := base.Clone()
	if _, err := resize.Downsize(first, resize.DefaultOptions()); err != nil {
		return err
	}
	after, err := cvs.Assign(first, cvs.DefaultOptions())
	if err != nil {
		return err
	}
	o.check(expectFindings(results, "c6", map[string]float64{
		"resize_size_reduction":   rz.SizeReduction,
		"resize_dynamic_saving":   rz.DynamicSaving,
		"resize_sublinearity":     rz.Sublinearity,
		"cvs_assigned_fraction":   cv.AssignedFraction,
		"cvs_dynamic_saving":      cv.DynamicSaving,
		"combined_total_saving":   flow.TotalSaving,
		"combined_dynamic_saving": flow.DynamicSaving,
		"combined_leakage_saving": flow.LeakageSaving,
		"combined_timing_met":     boolValue(flow.TimingMet),
		"assigned_after_resize":   after.AssignedFraction,
	}))

	// dual-Vth runs at guard 1.0 (timing-tight), as c5 does.
	tight := setup
	tight.PeriodGuard = 1.0
	dv, _, err := circuit(nil, 0, tight)
	if err != nil {
		return err
	}
	var dres *dualvth.Result
	dvS, err := timed(tr, "dualvth.assign", root, func() error {
		var err error
		dres, err = dualvth.Assign(dv, dualvth.Options{})
		return err
	})
	if err != nil {
		return err
	}
	o.put("dualvth.assign_ms", "ms", dvS*1e3)
	o.share["dualvth.assign_ms"] = dvS / wall
	o.check(expectFindings(results, "c5", map[string]float64{
		"sensitivity_high_vth_fraction": dres.HighVthFraction,
		"sensitivity_leakage_saving":    dres.LeakageSaving,
	}))
	return nil
}

// tryUpdateStream times sta.Incremental.TryUpdate on a seeded stream of
// gate re-sizing trials over the circuit claims' netlist, rolling back
// rejected trials as the optimizers do.
func tryUpdateStream(c config, o *outcome) {
	base, _, err := circuit(nil, 0, experiments.DefaultCircuitSetup())
	o.check(err)
	if err != nil {
		return
	}
	rng := rand.New(rand.NewSource(c.seed))
	inc := sta.NewIncremental(base)
	const trials = 20000
	seeds := make([]int, 0, 8)
	accepted := 0
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	id := c.tr.begin("sta.try_update_stream", 0)
	start := time.Now()
	for t := 0; t < trials; t++ {
		i := rng.Intn(len(base.Gates))
		g := &base.Gates[i]
		oldSize, oldVth, oldVdd := g.Size, g.VthClass, g.VddClass
		switch rng.Intn(3) {
		case 0:
			g.Size = math.Max(0.5, g.Size*(0.6+rng.Float64()))
		case 1:
			g.VthClass = 1 - g.VthClass
		case 2:
			g.VddClass = 1 - g.VddClass
		}
		seeds = append(seeds[:0], i)
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); !isPI {
				seeds = append(seeds, ref)
			}
		}
		if inc.TryUpdate(seeds...) {
			accepted++
		} else {
			g.Size, g.VthClass, g.VddClass = oldSize, oldVth, oldVdd
		}
	}
	d := time.Since(start)
	c.tr.end(id)
	metrics.Read(allocs)
	o.put("sta.try_update_us", "us", float64(d)/float64(time.Microsecond)/trials)
	o.put("sta.try_update_allocs", "count", float64(allocs[0].Value.Uint64()-a0)/trials)
	o.put("sta.try_update_accept_ratio", "ratio", float64(accepted)/trials)
	// The committed edits must leave the incremental view equal to a
	// fresh analysis, to the tolerance the sta tests use.
	fresh := sta.Analyze(base)
	var diverged error
	if !fresh.Met() {
		diverged = fmt.Errorf("sta: incremental edit stream accepted a violating state")
	}
	for i := range base.Gates {
		if math.Abs(fresh.ArrivalS[i]-inc.ArrivalS[i]) > 1e-16+1e-9*fresh.ArrivalS[i] {
			diverged = fmt.Errorf("sta: incremental arrival of gate %d is %g, full analysis %g", i, inc.ArrivalS[i], fresh.ArrivalS[i])
			break
		}
	}
	o.check(diverged)
}
