package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nanometer/internal/jobs"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/serve"
	"nanometer/internal/trace"
)

// serve-mixed traffic shape. The GET mix spans the registry and the three
// formats; a slice revalidates with If-None-Match; c8 alone is asked at
// seed-drawn mesh sizes, because every artifact's compute key includes
// the mesh size and a c3 miss would recompute library sizing for about a
// second. Trace jobs hold gate units beside the reads.
const (
	revalidateShare  = 0.10
	meshEvery        = time.Second // one burst of nproc identical c8 mesh-n GETs
	meshMin, meshMax = 42, 97      // weight 2..6 of the default 8-unit gate
	jobEvery         = time.Second
	jobIntervals     = 3_000_000
	pollEvery        = 100 * time.Millisecond

	// The probe offers baseRate GETs/s for baseLength, then climbs the
	// capacity ladder from firstRung by ladderStep, stepLength per rung,
	// for at most ladderLength.
	baseRate     = 400.0
	baseLength   = 2 * time.Second
	firstRung    = 1000.0
	ladderStep   = 1.5
	stepLength   = 500 * time.Millisecond
	ladderLength = 4 * time.Second
	// getLimit is the latency limit on the 99th percentile GET; a refused
	// or failed request counts as missing it.
	getLimit = 25 * time.Millisecond
	// lateLimit is how late the generator may typically dispatch before
	// its rate step is discarded as not offered.
	lateLimit = time.Millisecond
)

type opKind int

const (
	opGet opKind = iota
	opRevalidate
	opMesh
	opSubmit
	opPoll
)

type op struct {
	due    time.Duration // from phase start
	kind   opKind
	id     string
	format string
	meshN  int
	seed   int64
	n      int // trace intervals
}

// serveRig is an in-process daemon on a loopback listener plus a client
// limited to nproc connections.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	want   map[string][]byte // "id/format" → expected body
	etag   map[string]string // "id/format" → ETag
	ids    []string

	mu         sync.Mutex
	meshBodies map[string][]byte // guarded by mu; "n/format" → first body served
}

var formats = []string{"text", "json", "csv"}

// encodeOne renders one artifact as the daemon's artifact endpoint does.
func encodeOne(res *result.Result, format string) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch format {
	case "json":
		err = render.JSON{Indent: "  "}.EncodeReport(&buf, &result.Report{Artifacts: []*result.Result{res}})
	case "csv":
		err = render.CSV{}.Encode(&buf, res)
	default:
		err = render.Text{}.Encode(&buf, res)
	}
	return buf.Bytes(), err
}

// startDaemon starts a daemon with an empty result cache on a loopback
// listener, with a client limited to nproc connections.
func startDaemon() (*serveRig, error) {
	repro.ResetCache()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	r := &serveRig{
		srv:        serve.New(serve.Config{}),
		served:     make(chan struct{}),
		base:       "http://" + ln.Addr().String(),
		client:     &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}},
		want:       map[string][]byte{},
		etag:       map[string]string{},
		meshBodies: map[string][]byte{},
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() {
		defer close(r.served)
		r.hs.Serve(ln)
	}()
	return r, nil
}

// startServe starts a daemon and warms it with every artifact in every
// format, checking each body against an in-process render and the full
// report against the goldens.
func startServe(c config, o *outcome) (*serveRig, error) {
	r, err := startDaemon()
	if err != nil {
		return nil, err
	}
	arts := repro.Artifacts()
	bodies := map[string][]byte{}
	for _, a := range arts {
		r.ids = append(r.ids, a.ID)
		for _, f := range formats {
			resp, err := r.client.Get(r.base + "/api/v1/artifacts/" + a.ID + "?format=" + f)
			if err != nil {
				r.stop()
				return nil, err
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				r.stop()
				return nil, fmt.Errorf("warming %s/%s: status %d, %v", a.ID, f, resp.StatusCode, err)
			}
			bodies[a.ID+"/"+f] = b
			r.etag[a.ID+"/"+f] = resp.Header.Get("ETag")
		}
	}
	// The expected bodies come from the same process-wide cache the
	// daemon filled, rendered independently of the serving path; the full
	// report pins those results to the goldens.
	results, err := repro.ComputeAllCtx(context.Background(), runner.Pool{Workers: runtime.NumCPU()}, arts, repro.Options{})
	if err != nil {
		r.stop()
		return nil, err
	}
	rig, err := newReportRig(c.root)
	if err != nil {
		r.stop()
		return nil, err
	}
	for i, f := range reportFormats {
		b, err := encodeReport(results, f)
		if err == nil && !bytes.Equal(b, rig.golden[i]) {
			err = fmt.Errorf("serve-mixed: warmed %s report differs from the golden", f)
		}
		o.check(err)
	}
	for i, a := range arts {
		for _, f := range formats {
			b, err := encodeOne(results[i], f)
			if err == nil && !bytes.Equal(b, bodies[a.ID+"/"+f]) {
				err = fmt.Errorf("serve-mixed: warm-up body of %s/%s differs from render", a.ID, f)
			}
			o.check(err)
			r.want[a.ID+"/"+f] = b
		}
	}
	return r, nil
}

func (r *serveRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx)
	<-r.served
	r.srv.Close()
	r.client.CloseIdleConnections()
}

// schedule draws one phase's operations at a fixed offered GET rate.
func schedule(rng *rand.Rand, ids []string, rate float64, length time.Duration, jobSeed *int64) []op {
	var ops []op
	gap := time.Duration(float64(time.Second) / rate)
	for t := time.Duration(0); t < length; t += gap {
		o := op{due: t, kind: opGet, id: ids[rng.Intn(len(ids))], format: formats[rng.Intn(len(formats))]}
		if rng.Float64() < revalidateShare {
			o.kind = opRevalidate
		}
		ops = append(ops, o)
	}
	for t := time.Duration(0); t < length; t += meshEvery {
		n := meshMin + rng.Intn(meshMax-meshMin+1)
		f := formats[rng.Intn(len(formats))]
		for k := 0; k < runtime.NumCPU(); k++ {
			ops = append(ops, op{due: t + gap/2, kind: opMesh, id: "c8", format: f, meshN: n})
		}
	}
	for t := jobEvery / 3; t < length; t += jobEvery {
		*jobSeed++
		ops = append(ops, op{due: t, kind: opSubmit, seed: *jobSeed, n: jobIntervals})
	}
	for t := pollEvery / 2; t < length; t += pollEvery {
		ops = append(ops, op{due: t, kind: opPoll})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// jobTracker follows submitted trace jobs until they are terminal.
type jobTracker struct {
	mu       sync.Mutex
	pending  []string        // guarded by mu
	finished []jobs.Snapshot // guarded by mu
	seed     int64
}

// phaseResult is one open-loop phase at one offered rate.
type phaseResult struct {
	gets      []float64     // GET latency from due time, ms
	overLimit int           // GETs over getLimit, refused or failed
	late      []float64     // generator dispatch lateness, ms
	backlog   int           // operations queued when the last one was dispatched
	drain     time.Duration // from the last operation's due time to the last completion
}

// passes reports whether the 99th percentile GET met getLimit, counting
// refused and failed GETs as misses, and the queue drained within the
// limit after the last operation was due (no growing backlog).
func (p *phaseResult) passes() bool {
	return p.drain <= getLimit && float64(p.overLimit) <= 0.01*float64(len(p.gets))
}

// generatorBehind reports whether the generator failed to offer the
// step's rate: its typical dispatch ran late by more than lateLimit, or
// it finished dispatching more than getLimit behind schedule. Jitter of a
// few milliseconds on single dispatches is not falling behind; those
// requests are timed from their due time and pay for it.
func (p *phaseResult) generatorBehind() bool {
	return len(p.late) == 0 || median(p.late) > ms(lateLimit) || p.late[len(p.late)-1] > ms(getLimit)
}

// phase offers ops on schedule to nproc client workers. Each operation is
// timed from when it was due, so a stall delays every operation behind it.
func (r *serveRig) phase(o *outcome, ops []op, jt *jobTracker) *phaseResult {
	res := &phaseResult{}
	queue := make(chan op, len(ops)) // sized to the number of sends: the generator never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range queue {
				err := r.do(op, jt)
				lat := time.Since(start) - op.due
				mu.Lock()
				o.check(err)
				if op.kind <= opMesh {
					res.gets = append(res.gets, ms(lat))
					if err != nil || lat > getLimit {
						res.overLimit++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i, op := range ops {
		if d := op.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		res.late = append(res.late, ms(time.Since(start)-op.due))
		queue <- op
		if i == len(ops)-1 {
			res.backlog = len(queue)
		}
	}
	close(queue)
	wg.Wait()
	if len(ops) > 0 {
		res.drain = time.Since(start) - ops[len(ops)-1].due
	}
	return res
}

func (r *serveRig) get(path string, hdr map[string]string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, r.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// do performs one operation and checks its output.
func (r *serveRig) do(o op, jt *jobTracker) error {
	key := o.id + "/" + o.format
	switch o.kind {
	case opGet:
		resp, b, err := r.get("/api/v1/artifacts/"+o.id+"?format="+o.format, nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(b, r.want[key]) {
			return fmt.Errorf("GET %s: status %d, body equal to render: %v", key, resp.StatusCode, bytes.Equal(b, r.want[key]))
		}
	case opRevalidate:
		resp, _, err := r.get("/api/v1/artifacts/"+o.id+"?format="+o.format, map[string]string{"If-None-Match": r.etag[key]})
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != r.etag[key] {
			return fmt.Errorf("revalidate %s: status %d, ETag %q want %q", key, resp.StatusCode, resp.Header.Get("ETag"), r.etag[key])
		}
	case opMesh:
		resp, b, err := r.get(fmt.Sprintf("/api/v1/artifacts/c8?format=%s&mesh-n=%d", o.format, o.meshN), nil)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET c8 mesh-n=%d: status %d", o.meshN, resp.StatusCode)
		}
		mk := fmt.Sprintf("%d/%s", o.meshN, o.format)
		r.mu.Lock()
		prev, seen := r.meshBodies[mk]
		if !seen {
			r.meshBodies[mk] = b
		}
		r.mu.Unlock()
		if seen && !bytes.Equal(prev, b) {
			return fmt.Errorf("GET c8 mesh-n=%d: body changed between requests", o.meshN)
		}
	case opSubmit:
		doc := fmt.Sprintf(`{"name":"bench-%d","dt_seconds":0.01,"node_nm":50,`+
			`"generator":{"kind":"workload","intervals":%d,"typical_fraction":0.7,"seed":%d},`+
			`"assert":[{"check":"throughput","value":1,"rel_tol":0.001},{"check":"throttled_fraction","value":0,"rel_tol":0.01}]}`,
			o.seed, o.n, o.seed)
		resp, err := r.client.Post(r.base+"/api/v1/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var snap jobs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST job: status %d", resp.StatusCode)
		}
		jt.mu.Lock()
		jt.pending = append(jt.pending, snap.ID)
		jt.mu.Unlock()
	case opPoll:
		return r.poll(jt)
	}
	return nil
}

// poll checks every pending job once; a finished job's result must pass
// its own assertions (trace.FailedChecks).
func (r *serveRig) poll(jt *jobTracker) error {
	jt.mu.Lock()
	ids := append([]string(nil), jt.pending...)
	jt.mu.Unlock()
	for _, id := range ids {
		resp, b, err := r.get("/api/v1/jobs/"+id, nil)
		if err != nil {
			return err
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(b, &snap); err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("job %s status: %d, %v", id, resp.StatusCode, err)
		}
		if !snap.State.Terminal() {
			continue
		}
		jt.mu.Lock()
		for i, p := range jt.pending {
			if p == id {
				jt.pending = append(jt.pending[:i], jt.pending[i+1:]...)
				break
			}
		}
		jt.finished = append(jt.finished, snap)
		jt.mu.Unlock()
		if snap.State != jobs.StateDone {
			return fmt.Errorf("job %s ended %s: %s", id, snap.State, snap.Error)
		}
		resp, b, err = r.get("/api/v1/jobs/"+id+"/result", nil)
		if err != nil {
			return err
		}
		var res result.Result
		if err := json.Unmarshal(b, &res); err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("job %s result: %d, %v", id, resp.StatusCode, err)
		}
		if failed := trace.FailedChecks(&res); len(failed) > 0 {
			return fmt.Errorf("job %s failed its assertions: %v", id, failed)
		}
	}
	return nil
}

// scrape reads /metrics and sums each metric over its label sets.
func (r *serveRig) scrape() (map[string]float64, error) {
	_, b, err := r.get("/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// checkMeshBodies recomputes every c8 mesh size the daemon served, uncached,
// and compares the served bodies with an in-process render.
func (r *serveRig) checkMeshBodies(o *outcome) {
	c8, err := repro.Select([]string{"c8"})
	if err != nil {
		o.check(err)
		return
	}
	for mk, body := range r.meshBodies {
		ns, f, _ := strings.Cut(mk, "/")
		n, _ := strconv.Atoi(ns)
		res, err := c8[0].ComputeCached(repro.Options{MeshN: n, NoCache: true})
		if err == nil {
			var want []byte
			want, err = encodeOne(res, f)
			if err == nil && !bytes.Equal(want, body) {
				err = fmt.Errorf("c8 mesh-n=%d %s body differs from render", n, f)
			}
		}
		o.check(err)
	}
}

// serveProbe measures the serve, gate, singleflight, cache, jobs, trace
// and render layers with the serve-mixed traffic: an open loop at
// baseRate for baseLength, then a ladder of higher rates, each for
// stepLength, for the highest one that keeps the 99th percentile GET under
// getLimit with no growing backlog. Trace jobs run through both and are
// polled to a terminal state. Every traced run includes it.
func serveProbe(c config, o *outcome) error {
	rng := rand.New(rand.NewSource(c.seed))
	rig, err := startServe(c, o)
	if err != nil {
		return err
	}
	defer rig.stop()
	jt := &jobTracker{seed: c.seed * 1_000_000}
	before, err := rig.scrape()
	if err != nil {
		return err
	}
	// A second client samples the gate queue.
	var waitPeak float64
	stopGauge, gaugeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(gaugeDone)
		side := &serveRig{base: rig.base, client: &http.Client{}}
		defer side.client.CloseIdleConnections()
		for {
			if m, err := side.scrape(); err == nil && m["nanoreprod_gate_waiting_requests"] > waitPeak {
				waitPeak = m["nanoreprod_gate_waiting_requests"]
			}
			select {
			case <-stopGauge:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()

	id := c.tr.begin("serve.base_phase", 0)
	base := rig.phase(o, schedule(rng, rig.ids, baseRate, baseLength, &jt.seed), jt)
	c.tr.end(id)
	// The ladder climbs by ladderStep from firstRung until a step misses
	// the limit. A step where the generator fell behind is discarded: it
	// counts as not met, never as met.
	best, discarded := 0.0, 0
	if base.passes() && !base.generatorBehind() {
		best = baseRate
	}
	ladderStart := time.Now()
	for rate := firstRung; best > 0 && time.Since(ladderStart) < ladderLength; rate *= ladderStep {
		id := c.tr.begin("serve.ladder_step", 0)
		p := rig.phase(o, schedule(rng, rig.ids, rate, stepLength, &jt.seed), jt)
		c.tr.end(id)
		fmt.Printf("serve-mixed: step %.0f/s p99 %.2f ms over-limit %d/%d backlog %d drain %v late p99 %.3f ms\n",
			rate, quantile(p.gets, 0.99), p.overLimit, len(p.gets), p.backlog, p.drain, quantile(p.late, 0.99))
		if p.generatorBehind() {
			discarded++
			break
		}
		if !p.passes() {
			break
		}
		best = rate
	}
	for wait := time.Now(); ; time.Sleep(pollEvery) {
		o.check(rig.poll(jt))
		jt.mu.Lock()
		left := len(jt.pending)
		jt.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Since(wait) > 60*time.Second {
			o.check(fmt.Errorf("serve-mixed: %d trace jobs still pending after 60 s", left))
			break
		}
	}
	close(stopGauge)
	<-gaugeDone
	after, err := rig.scrape()
	if err != nil {
		return err
	}
	rig.checkMeshBodies(o)
	if best == 0 {
		fmt.Printf("serve-mixed: base rate %.0f/s missed the %v p99 limit\n", baseRate, getLimit)
	}

	var waitMS, runMS []float64
	var intervals, runS float64
	for _, s := range jt.finished {
		if s.StartedAt == nil || s.FinishedAt == nil || s.Progress == nil {
			continue
		}
		waitMS = append(waitMS, ms(s.StartedAt.Sub(s.CreatedAt)))
		runMS = append(runMS, ms(s.FinishedAt.Sub(*s.StartedAt)))
		intervals += float64(s.Progress.Total)
		runS += s.FinishedAt.Sub(*s.StartedAt).Seconds()
	}
	if len(waitMS) == 0 {
		return fmt.Errorf("serve-mixed: no trace job finished")
	}
	o.put("serve.gen_late_ms", "ms", quantile(base.late, 0.99))
	o.put("serve.steps_discarded", "count", float64(discarded))
	o.put("serve.max_get_rps", "1/s", best)
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("nanoreprod_cache_hits_total"), delta("nanoreprod_cache_misses_total")
	o.put("repro.cache_hit_ratio", "ratio", hits/(hits+misses))
	o.put("serve.singleflight_shared", "count", delta("nanoreprod_singleflight_shared_total"))
	o.put("serve.not_modified_ratio", "ratio", delta("nanoreprod_etag_not_modified_total")/delta("nanoreprod_artifact_requests_total"))
	o.put("serve.gate_rejections", "count", delta("nanoreprod_gate_rejections_total"))
	o.put("serve.timeouts", "count", delta("nanoreprod_request_timeouts_total"))
	o.put("serve.gate_waiting_peak", "count", waitPeak)
	o.put("jobs.queue_wait_ms", "ms", median(waitMS))
	o.put("jobs.run_ms", "ms", median(runMS))
	o.put("trace.intervals_per_s", "1/s", intervals/runS)

	// Encode cost of one artifact, in-process, on the warmed result.
	f3, err := repro.Select([]string{"f3"})
	if err != nil {
		return err
	}
	res, err := f3[0].ComputeCached(repro.Options{})
	if err != nil {
		return err
	}
	for _, f := range formats {
		var ds []float64
		for i := 0; i < 200; i++ {
			d, err := timed(c.tr, "render.encode."+f, 0, func() error { _, err := encodeOne(res, f); return err })
			if err != nil {
				return err
			}
			ds = append(ds, d*1e3)
		}
		o.put("render.encode_ms."+f, "ms", median(ds))
	}
	return nil
}
