// Package serve is the HTTP layer of the reproduction: it exposes the
// artifact registry of internal/repro as a long-lived daemon
// (cmd/nanoreprod) instead of a one-shot CLI. The routing is thin — the
// substance is the production behavior around it:
//
//   - Strong ETags derived from artifact ID + the compute-cache key, so
//     If-None-Match revalidation answers 304 without touching the models,
//     and an ETag match guarantees byte-identical data (the same guarantee
//     the compute cache gives in-process).
//   - A weighted FIFO admission gate: every request costs compute units
//     proportional to its mesh size, cheap requests run concurrently up to
//     the configured capacity, and an expensive mesh-n=255 refinement
//     drains the gate and runs alone instead of starving the pool.
//   - Per-request timeouts that cut the handler loose (503/504) while the
//     abandoned compute still completes into the cache, so a retry is a
//     hit rather than a second solve. The gate units stay held until the
//     model work actually finishes — the gate bounds real solver
//     concurrency, not merely live handlers.
//   - Prometheus metrics (internal/obs) for latency, admission, per-
//     artifact compute time, and the compute cache's hit/miss/bypass
//     counters, plus /debug/pprof.
//
// Handlers produce bytes identical to cmd/nanorepro for the same options:
// both sit on repro.ComputeCached and the internal/render encoders.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nanometer/internal/experiments"
	jobsvc "nanometer/internal/jobs"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/store"
	"nanometer/internal/trace"
)

// Config parameterizes a Server. The zero value serves the full registry
// with sane production defaults.
type Config struct {
	// Artifacts is the registry to serve; nil selects repro.Artifacts().
	Artifacts []repro.Artifact
	// GateUnits is the admission-gate capacity in compute units (one unit
	// ≈ one default-mesh artifact compute). ≤ 0 selects
	// max(8, 4·GOMAXPROCS).
	GateUnits int64
	// Timeout is the per-request compute budget (admission wait included).
	// ≤ 0 selects 30 s.
	Timeout time.Duration
	// Jobs is the worker count for full-report and scenario-sweep
	// requests; ≤ 0 selects GOMAXPROCS.
	Jobs int
	// Store, when non-nil, is the disk-backed result store installed as
	// the compute cache's second level (process-wide via
	// repro.SetResultStore) and exported on /metrics. Replicas sharing a
	// store directory warm each other through it.
	Store *store.Store
	// Peers is the replica member list for shared-compute mode
	// (host:port each, the full cluster including this replica as the
	// others address it). Empty disables peer consultation.
	Peers []string
	// Self is this replica's own entry in Peers; keys it owns are solved
	// locally, keys owned by another member are fetched from that peer
	// (falling through to a local solve on any failure).
	Self string
	// PeerTimeout bounds one peer fetch; ≤ 0 selects DefaultPeerTimeout.
	PeerTimeout time.Duration
	// JobWorkers bounds concurrently running trace-simulation jobs; ≤ 0
	// selects 2. Queue depth and retention use the jobs package defaults.
	JobWorkers int
}

// Server routes HTTP requests onto the artifact registry. Create with New,
// mount via Handler.
type Server struct {
	byID    map[string]repro.Artifact
	order   []repro.Artifact
	gate    *gate
	flights *flightGroup
	peers   *peerSet
	store   *store.Store
	jobq    *jobsvc.Queue
	timeout time.Duration
	jobs    int
	met     *metrics
	mux     *http.ServeMux

	// scenarioNames is the admitted metrics-label set for scenario names
	// (bounded; see scenarioLabel).
	labelMu       sync.Mutex
	scenarioNames map[string]bool // guarded by labelMu
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	arts := cfg.Artifacts
	if arts == nil {
		arts = repro.Artifacts()
	}
	units := cfg.GateUnits
	if units <= 0 {
		units = int64(4 * runtime.GOMAXPROCS(0))
		if units < 8 {
			units = 8
		}
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		byID:          make(map[string]repro.Artifact, len(arts)),
		order:         arts,
		gate:          newGate(units),
		flights:       newFlightGroup(),
		timeout:       timeout,
		jobs:          jobs,
		scenarioNames: make(map[string]bool),
	}
	for _, a := range arts {
		s.byID[a.ID] = a
	}
	if cfg.Store != nil {
		// The compute cache (and so the store hook) is process-wide;
		// installing it here keeps single-binary wiring trivial, and
		// in-process multi-replica setups (loadgen -replicas) pass the
		// same handle so the install is idempotent.
		s.store = cfg.Store
		repro.SetResultStore(cfg.Store)
	}
	if len(cfg.Peers) > 0 {
		s.peers = newPeerSet(cfg.Self, cfg.Peers, cfg.PeerTimeout)
	}
	// The job queue shares the admission gate with one-shot requests: a
	// running simulation holds weight like a solve does, and a canceled
	// job hands its units back as soon as the simulator observes the
	// cancel. The disk store (when configured) doubles as the job result
	// store, so a resubmitted trace is a store hit across restarts too.
	jcfg := jobsvc.Config{Workers: cfg.JobWorkers, Admit: func(ctx context.Context, tr *trace.Trace) (func(), error) {
		return s.gate.Acquire(ctx, jobWeight(tr))
	}}
	if cfg.Store != nil {
		jcfg.Store = cfg.Store
	}
	s.jobq = jobsvc.New(jcfg)
	s.met = newMetrics(s.gate, s.store, s.jobq)
	s.jobq.OnFinish = func(state jobsvc.State, cached bool) {
		s.met.jobsFinished.With(stateLabel(state)).Inc()
		if cached {
			s.met.jobsCached.Inc()
		}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Close cancels every trace job and waits for the workers to drain. Call
// after the HTTP server has shut down.
func (s *Server) Close() { s.jobq.Close() }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /api/v1/artifacts", s.handleIndex)
	s.mux.HandleFunc("GET /api/v1/artifacts/{id}", s.handleArtifact)
	s.mux.HandleFunc("GET /api/v1/report", s.handleReport)
	s.mux.HandleFunc("POST /api/v1/scenarios", s.handleScenarios)
	// The trace-simulation job service: long computes live behind a job
	// handle instead of a hanging request.
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleJobIndex)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	// The replica-to-replica result exchange: bare typed-result JSON, no
	// encoding options, and — the loop-prevention invariant — served
	// strictly from local compute (never re-forwarded to another peer).
	s.mux.HandleFunc("GET /api/v1/internal/result/{id}", s.handleInternalResult)
	s.mux.HandleFunc("POST /api/v1/cache/flush", s.handleFlush)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the instrumented root handler (mount on an http.Server).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inFlight.Inc()
		defer s.met.inFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		s.met.requests.With(codeLabel(rec.code)).Inc()
		s.met.duration.Observe(time.Since(start).Seconds())
	})
}

// statusRecorder wraps every response to record its status code. It
// forwards Flush, so the NDJSON streams (sweep lines, job progress) reach
// the client as they are written instead of when the handler returns, and
// Unwrap exposes the underlying writer to http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// apiError answers a failed API request with a JSON body (the API speaks
// JSON even when the requested representation was text or CSV). Validator
// headers are scrubbed defensively: an error body must never ship a strong
// ETag or caching policy, or a client's If-None-Match revalidation could
// 304 an error it never successfully fetched.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Del("ETag")
	w.Header().Del("Cache-Control")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// requestOptions parses and validates the query parameters shared by the
// artifact and report endpoints: the compute options, the format, and the
// text encoder's settings.
func requestOptions(r *http.Request) (opts repro.Options, text render.Text, format string, err error) {
	q := r.URL.Query()
	format = q.Get("format")
	if format == "" {
		format = "text"
	}
	if err := render.CheckFormat(format); err != nil {
		return opts, text, "", err
	}
	if opts.MeshN, err = meshNParam(q); err != nil {
		return opts, text, "", err
	}
	// Encode-only toggles of the text format (same semantics as the CLI's
	// -v and -plot).
	text.Verbose = boolParam(q.Get("verbose"))
	text.Plot = boolParam(q.Get("plot"))
	if format != "text" && (text.Verbose || text.Plot) {
		return opts, text, "", fmt.Errorf("verbose and plot only apply to format=text")
	}
	return opts, text, format, nil
}

func boolParam(v string) bool { return v == "1" || v == "true" }

// meshNParam parses the optional mesh-n query parameter (0 when absent).
// It arrives from untrusted clients and goes through the same
// ValidateMeshN the CLI flag uses; every endpoint that takes it answers a
// bad value with 400 and this error.
func meshNParam(q url.Values) (int, error) {
	v := q.Get("mesh-n")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("mesh-n %q is not an integer", v)
	}
	if err := repro.ValidateMeshN(n); err != nil {
		return 0, err
	}
	return n, nil
}

// etagFor derives the strong ETag of one artifact representation: the
// artifact ID, the compute-cache key (everything that can change the
// computed data), and the encoding discriminators (everything that can
// change its serialization). Compute is deterministic, so equal ETags mean
// byte-identical bodies — which is also why the ETag can be issued without
// encoding anything.
func etagFor(id string, opts repro.Options, text render.Text, format string) string {
	enc := format
	if text.Verbose {
		enc += "v"
	}
	if text.Plot {
		enc += "p"
	}
	return `"` + id + "-" + opts.CacheKey() + "-" + enc + `"`
}

// etagMatches implements the If-None-Match comparison for strong ETags.
func etagMatches(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// contentType maps a format to its media type.
func contentType(format string) string {
	switch format {
	case "json":
		return "application/json"
	case "csv":
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// weight prices a request in gate units: the default 41-node mesh (and
// everything cheaper) costs 1, larger meshes cost proportionally to their
// node count — mesh-n=255 weighs ~39 units, so it drains the gate and runs
// exclusively rather than stacking up alongside a burst of cheap requests.
func weight(meshN int) int64 {
	if meshN <= 0 {
		meshN = experiments.DefaultMeshN
	}
	d := int64(experiments.DefaultMeshN) * int64(experiments.DefaultMeshN)
	n := int64(meshN) * int64(meshN)
	return (n + d - 1) / d
}

// admit acquires wt gate units under the request deadline. The returned
// release must be handed to exactly one finisher (a compute goroutine);
// a nil release means admission failed and the response was written.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, wt int64) func() {
	release, err := s.gate.Acquire(ctx, wt)
	if err != nil {
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusServiceUnavailable, "admission gate wait canceled: %v", err)
		return nil
	}
	return release
}

// await waits for a background produce goroutine under the deadline. On
// timeout the handler answers 504 and walks away; the goroutine keeps
// running to completion (its result lands in the compute cache, so the
// client's retry is a hit) and releases its gate units when done.
func await[T any](ctx context.Context, s *Server, w http.ResponseWriter, ch <-chan T) (T, bool) {
	select {
	case v := <-ch:
		return v, true
	case <-ctx.Done():
		s.met.timeouts.Inc()
		var zero T
		apiError(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", ctx.Err())
		return zero, false
	}
}

// handleIndex lists the registry.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		URL   string `json:"url"`
	}
	index := struct {
		Artifacts []entry  `json:"artifacts"`
		Formats   []string `json:"formats"`
	}{Formats: render.Formats}
	for _, a := range s.order {
		index.Artifacts = append(index.Artifacts, entry{a.ID, a.Title, "/api/v1/artifacts/" + a.ID})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(index)
}

// handleArtifact serves one artifact in the requested representation.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a, ok := s.byID[id]
	if !ok {
		apiError(w, http.StatusNotFound, "unknown artifact %q (GET /api/v1/artifacts for the index)", id)
		return
	}
	s.met.artifactTotal.With(artifactLabel(a)).Inc()
	opts, text, format, err := requestOptions(r)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	etag := etagFor(id, opts, text, format)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		s.met.notModified.Inc()
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache") // revalidate via ETag; 304 is cheap
		w.WriteHeader(http.StatusNotModified)
		return
	}

	res, ok := s.produceResult(w, r, a, opts, true)
	if !ok {
		return
	}
	var body bytes.Buffer
	if err := render.Report(&body, format, text, []*result.Result{res}); err != nil {
		apiError(w, http.StatusInternalServerError, "encoding %v", err)
		return
	}
	// The validator headers ride only on the success path: a 504/500 must
	// never carry a strong ETag, or a client that cached the error body
	// could have it revalidated into a 304 forever.
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	writeBody(w, format, body.Bytes())
}

// produceResult runs the singleflight-collapsed compute of one artifact
// and either returns its shared result or writes the failure response
// (503/504/500) itself. The first concurrent request for an (artifact,
// compute key) pair becomes the leader: it alone acquires gate weight and
// computes (consulting peers when allowed). Followers wait on the leader's
// flight under their own deadline without touching the gate — N identical
// concurrent requests cost one admission, not N.
func (s *Server) produceResult(w http.ResponseWriter, r *http.Request, a repro.Artifact, opts repro.Options, allowPeers bool) (*result.Result, bool) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	key := a.ID + "\x00" + opts.CacheKey()
	f, leader := s.flights.join(key)
	if !leader {
		s.met.singleflightShared.Inc()
		select {
		case <-f.done:
		case <-ctx.Done():
			s.met.timeouts.Inc()
			apiError(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", ctx.Err())
			return nil, false
		}
		if f.err != nil {
			if f.rejected {
				s.met.rejected.Inc()
				w.Header().Set("Retry-After", "1")
				apiError(w, http.StatusServiceUnavailable, "admission gate wait canceled: %v", f.err)
			} else {
				apiError(w, http.StatusInternalServerError, "computing %s: %v", a.ID, f.err)
			}
			return nil, false
		}
		return f.res, true
	}

	release, aerr := s.gate.Acquire(ctx, weight(opts.MeshN))
	if aerr != nil {
		// Propagate the rejection to any followers before answering, so
		// they 503 promptly instead of waiting out their deadlines.
		s.flights.finish(key, f, nil, aerr, true)
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusServiceUnavailable, "admission gate wait canceled: %v", aerr)
		return nil, false
	}
	type outcome struct {
		res *result.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release()
		start := time.Now()
		res, err := s.computeArtifact(ctx, a, opts, allowPeers)
		s.met.computeSeconds.With(artifactLabel(a)).Add(time.Since(start).Seconds())
		s.flights.finish(key, f, res, err, false)
		ch <- outcome{res, err}
	}()
	out, ok := await(ctx, s, w, ch)
	if !ok {
		return nil, false
	}
	if out.err != nil {
		apiError(w, http.StatusInternalServerError, "computing %s: %v", a.ID, out.err)
		return nil, false
	}
	return out.res, true
}

// computeArtifact is the leader's compute: local caches (memory, then the
// shared store) answer first; a key owned by a remote peer is fetched from
// that peer; anything else — including every flavor of peer failure —
// solves locally. The local solve is the always-available base case, so
// peer mode can only add capacity, never subtract availability.
func (s *Server) computeArtifact(ctx context.Context, a repro.Artifact, opts repro.Options, allowPeers bool) (*result.Result, error) {
	if s.peers != nil && allowPeers {
		probe := opts
		probe.CacheOnly = true
		if res, err := a.ComputeCached(probe); err == nil {
			return res, nil
		}
		if owner, remote := s.peers.owner(a.ID + "\x00" + opts.CacheKey()); remote {
			res, err := s.peers.fetch(ctx, owner, a.ID, opts)
			if err == nil {
				s.met.peerHits.Inc()
				return res, nil
			}
			s.met.peerFallthrough.Inc()
		}
	}
	return a.ComputeCached(opts)
}

// handleInternalResult serves one artifact's bare typed result as JSON for
// a sibling replica. It reuses the full admission + singleflight machinery
// but never consults peers itself (allowPeers=false): a forwarded request
// terminates here, so peer topologies cannot loop no matter how the member
// lists disagree.
func (s *Server) handleInternalResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a, ok := s.byID[id]
	if !ok {
		apiError(w, http.StatusNotFound, "unknown artifact %q", id)
		return
	}
	s.met.peerServes.Inc()
	meshN, err := meshNParam(r.URL.Query())
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, ok := s.produceResult(w, r, a, repro.Options{MeshN: meshN}, false)
	if !ok {
		return
	}
	body, err := json.Marshal(res)
	if err != nil {
		apiError(w, http.StatusInternalServerError, "encoding %s: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleReport serves the full run — the exact bytes `nanorepro
// -format=<f>` prints for the same options: the registry computed on one
// Jobs-wide pool, then encoded by render.Report. ctx is the request's: a
// report whose client has gone away stops launching artifacts (the ones
// already solving run to completion and still land in the compute cache,
// exactly like the single-artifact path).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	opts, text, format, err := requestOptions(r)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	// A report computes every artifact: price it as the sum of its parts
	// (clamped to capacity inside the gate).
	release := s.admit(ctx, w, int64(len(s.order))*weight(opts.MeshN))
	if release == nil {
		return
	}
	type outcome struct {
		body []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release()
		results, err := repro.ComputeAllCtx(ctx, runner.Pool{Workers: s.jobs}, s.order, opts)
		var body bytes.Buffer
		if err == nil {
			err = render.Report(&body, format, text, results)
		}
		ch <- outcome{body.Bytes(), err}
	}()
	out, ok := await(ctx, s, w, ch)
	if !ok {
		return
	}
	if out.err != nil {
		apiError(w, http.StatusInternalServerError, "report: %v", out.err)
		return
	}
	writeBody(w, format, out.body)
}

// handleFlush drops every memoized result (ResetCache is safe under load —
// in-flight computes finish against the old generation).
func (s *Server) handleFlush(w http.ResponseWriter, _ *http.Request) {
	before := repro.ReadCacheStats().Entries
	repro.ResetCache()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"flushed": true, "entries_dropped": before})
}

func writeBody(w http.ResponseWriter, format string, body []byte) {
	w.Header().Set("Content-Type", contentType(format))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
