package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"nanometer/internal/powergrid"
	"nanometer/internal/result"
	"nanometer/internal/scenario"
)

// grid-sweep posts 9-step c8 sweeps at mesh-n=255. A clock sweep leaves
// the power grid alone, so its variants share one mesh; a max_power sweep
// changes the supply current, so each variant has its own mesh.
const (
	sweepSteps = 9
	sweepMeshN = 255
)

var sweepKinds = [2]string{"clock", "max_power"}

// sweepLine is one NDJSON line of a scenarios response.
type sweepLine struct {
	Scenario  string           `json:"scenario"`
	Key       string           `json:"key"`
	Artifacts []*result.Result `json:"artifacts"`
	Error     string           `json:"error"`
}

type sweepRun struct {
	total, first time.Duration
	meshes       int // distinct meshes the results imply
}

// sweep posts one sweep and reads the stream to its last line. Every
// variant must come back in grid order, once, with a c8 result and no
// error.
func (r *serveRig) sweep(doc []byte, names []string) (sweepRun, error) {
	var out sweepRun
	start := time.Now()
	resp, err := r.client.Post(fmt.Sprintf("%s/api/v1/scenarios?only=c8&mesh-n=%d", r.base, sweepMeshN), "application/json", bytes.NewReader(doc))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return out, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, b)
	}
	var lines []sweepLine
	br := bufio.NewReader(resp.Body)
	for {
		b, err := br.ReadBytes('\n')
		if len(b) > 0 {
			if len(lines) == 0 {
				out.first = time.Since(start)
			}
			var l sweepLine
			if err := json.Unmarshal(b, &l); err != nil {
				return out, fmt.Errorf("sweep line %d: %w", len(lines)+1, err)
			}
			lines = append(lines, l)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	out.total = time.Since(start)
	if len(lines) != len(names) {
		return out, fmt.Errorf("sweep: %d lines for %d variants", len(lines), len(names))
	}
	ratios := map[float64]bool{}
	for i, l := range lines {
		if l.Error != "" || l.Scenario != names[i] || len(l.Artifacts) != 1 || l.Artifacts[0].ID != "c8" {
			return out, fmt.Errorf("sweep line %d: scenario %q (want %q), %d artifacts, error %q", i+1, l.Scenario, names[i], len(l.Artifacts), l.Error)
		}
		f, err := finding(l.Artifacts, "c8", "pessimistic_ratio")
		if err != nil {
			return out, err
		}
		ratios[f.Value] = true
	}
	out.meshes = len(ratios)
	return out, nil
}

func (r *serveRig) flush() error {
	resp, err := r.client.Post(r.base+"/api/v1/cache/flush", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flush: status %d", resp.StatusCode)
	}
	return nil
}

// sweepDoc draws one sweep document and expands its variant names with
// scenario.Parse, Variants and Resolve, as the daemon does.
func sweepDoc(rng *rand.Rand, kind string, n int, seed int64) ([]byte, []string, time.Duration, error) {
	span := 10 + float64(rng.Intn(41))/2
	doc := []byte(fmt.Sprintf(`{"name":"bench-%d-%d","sweep":{"param":%q,"steps":%d,"span_pct":%g,"nodes":[35]}}`, seed, n, kind, sweepSteps, span))
	start := time.Now()
	sc, err := scenario.Parse(doc)
	if err != nil {
		return nil, nil, 0, err
	}
	vs, err := sc.Variants()
	if err != nil {
		return nil, nil, 0, err
	}
	names := make([]string, len(vs))
	for i, v := range vs {
		if _, err := v.Resolve(); err != nil {
			return nil, nil, 0, err
		}
		names[i] = v.Name
	}
	return doc, names, time.Since(start), nil
}

// setupSweep starts a daemon and runs one untimed sweep of each kind, so
// timed sweeps start with the solver assemblies and laboratory memo built.
// It returns how many sweep documents it drew.
func setupSweep(c config, o *outcome, rng *rand.Rand) (*serveRig, int, time.Duration, error) {
	start := time.Now()
	rig, err := startDaemon()
	if err != nil {
		return nil, 0, 0, err
	}
	n := 0
	for _, kind := range sweepKinds {
		n++
		doc, names, _, err := sweepDoc(rng, kind, n, c.seed)
		if err == nil {
			_, err = rig.sweep(doc, names)
			o.check(err)
			err = rig.flush()
		}
		if err != nil {
			rig.stop()
			return nil, 0, 0, err
		}
	}
	return rig, n, time.Since(start), nil
}

// sweepGroup measures grid-sweep: one client alternates shared-mesh
// (clock) and distinct-mesh (max_power) sweeps, flushing the cache
// between sweeps outside the timed part. A probe pass runs one of each.
func sweepGroup(c config, o *outcome, probe bool) error {
	rng := rand.New(rand.NewSource(c.seed))
	var setups []float64
	if !probe && c.tr == nil && !c.setupOnly {
		var err error
		if setups, err = childSetups(c, o); err != nil {
			return err
		}
	}
	rig, n, d, err := setupSweep(c, o, rng)
	if err != nil {
		return err
	}
	defer rig.stop()
	setups = append(setups, d.Seconds())
	if c.setupOnly {
		o.put("setup_s", "s", d.Seconds())
		return nil
	}

	var sweeps [2][]float64
	var firsts, variantsMS []float64
	var solves, iters, meshes [2][]float64
	mem := startMem()
	start := time.Now()
	for i := 0; (probe && i < 2) || (!probe && (i < 4 || time.Since(start) < c.seconds)); i++ {
		k := i % 2
		n++
		doc, names, vd, err := sweepDoc(rng, sweepKinds[k], n, c.seed)
		if err != nil {
			return err
		}
		variantsMS = append(variantsMS, ms(vd))
		// Traced runs only: /metrics deltas count the sweep's mesh solves.
		var before, after map[string]float64
		if c.tr != nil {
			if before, err = rig.scrape(); err != nil {
				return err
			}
		}
		id := c.tr.begin("scenario.sweep."+sweepKinds[k], 0)
		run, err := rig.sweep(doc, names)
		c.tr.end(id)
		o.check(err)
		if c.tr != nil {
			var serr error
			if after, serr = rig.scrape(); serr != nil {
				return serr
			}
		}
		if ferr := rig.flush(); ferr != nil {
			return ferr
		}
		if err != nil {
			continue
		}
		sweeps[k] = append(sweeps[k], ms(run.total))
		if k == 1 {
			firsts = append(firsts, ms(run.first))
		}
		meshes[k] = append(meshes[k], float64(run.meshes))
		if c.tr != nil {
			solves[k] = append(solves[k], after["nanoreprod_mesh_solves_total"]-before["nanoreprod_mesh_solves_total"])
			iters[k] = append(iters[k], after["nanoreprod_mesh_solve_iterations_total"]-before["nanoreprod_mesh_solve_iterations_total"])
			fmt.Printf("grid-sweep: %s sweep recorded %.0f mesh solves, %.0f solver iterations, %d distinct meshes\n",
				sweepKinds[k], solves[k][len(solves[k])-1], iters[k][len(iters[k])-1], run.meshes)
		}
	}
	mem.stopMem()
	count := len(sweeps[0]) + len(sweeps[1])
	if len(sweeps[0]) == 0 || len(sweeps[1]) == 0 {
		return fmt.Errorf("grid-sweep: a sweep kind never succeeded")
	}
	o.put("scenario.first_line_ms", "ms", median(firsts))
	if c.tr == nil {
		o.put("setup_s", "s", median(setups))
		o.put("p50_ms", "ms", median(sweeps[1]))
		o.put("tail_ms", "ms", quantile(sweeps[1], 0.9))
		o.put("aux_p50_ms", "ms", median(sweeps[0]))
		o.put("alloc_mb_per_op", "MB", mem.allocMB()/float64(count))
		o.put("heap_peak_mb", "MB", mem.peakMB())
		fmt.Printf("grid-sweep: %d shared-mesh and %d distinct-mesh sweeps (tail is p90)\n", len(sweeps[0]), len(sweeps[1]))
		return nil
	}
	for k, name := range []string{"shared", "distinct"} {
		o.put("powergrid.solves_recorded."+name, "count", median(solves[k]))
		o.put("powergrid.iters_per_sweep."+name, "count", median(iters[k]))
		o.put("powergrid.meshes_implied."+name, "count", median(meshes[k]))
	}
	o.put("scenario.variants_ms", "ms", median(variantsMS))

	// Direct mesh solves, outside any daemon request.
	lab, err := (*scenario.Scenario)(nil).Resolve()
	if err != nil {
		return err
	}
	node := lab.MustNode(35)
	spec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
	for _, meshN := range []int{41, 255} {
		var ds []float64
		for i := 0; i < 5; i++ {
			m, err := powergrid.PessimisticMesh(spec, meshN)
			if err != nil {
				return err
			}
			d, err := timed(c.tr, fmt.Sprintf("powergrid.mesh_solve.n%d", meshN), 0, func() error { _, err := m.Solve(); return err })
			if err != nil {
				return err
			}
			ds = append(ds, d*1e3)
		}
		o.put(fmt.Sprintf("powergrid.mesh_solve_ms.n%d", meshN), "ms", median(ds))
	}
	return nil
}
