package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// readBody reads a request body through MaxBytesReader with limit maxBytes.
// Use bodyErrStatus to map a failure to its status code.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
}

// bodyErrStatus maps a body-read failure to its HTTP status: 413 only for
// the MaxBytesReader limit; every other failure (client hung up mid-body,
// malformed chunking) is the client's bad request, not an oversize one.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// maxScenarioLabels bounds the cardinality of the scenario metrics label.
// Scenario names come from untrusted POST bodies, so without a cap a client
// could mint one time series per request; past the cap new names fold into
// the "other" child and /metrics stays scrape-sized.
const maxScenarioLabels = 64

// scenarioLabel maps a variant name to its metrics label: the base scenario
// name (sweep suffixes like "/vdd=0.800" fold into their parent), admitted
// into the label set until the cardinality cap, then "other".
func (s *Server) scenarioLabel(name string) string {
	base := name
	if i := strings.IndexByte(base, '/'); i >= 0 {
		base = base[:i]
	}
	s.labelMu.Lock()
	defer s.labelMu.Unlock()
	if s.scenarioNames[base] {
		return base
	}
	if len(s.scenarioNames) >= maxScenarioLabels {
		return "other"
	}
	s.scenarioNames[base] = true
	return base
}

// variantLine is one NDJSON line of a scenarios response: the typed results
// of one sweep variant (or the whole scenario when there is no sweep). A
// failed variant carries its error in-band so the stream — and the variants
// after it — survive one bad grid corner.
type variantLine struct {
	// Scenario is the variant's derived name (e.g. "vddsweep/vdd=0.800").
	Scenario string `json:"scenario"`
	// Key is the scenario content digest, the same value folded into the
	// compute-cache key; two lines with equal keys describe identical
	// roadmaps.
	Key string `json:"key"`
	// Artifacts holds the typed results that computed, in registry order.
	Artifacts []*result.Result `json:"artifacts,omitempty"`
	// Error aggregates this variant's failures (admission cut short,
	// artifact computes that errored). Partial results still appear above.
	Error string `json:"error,omitempty"`
}

// handleScenarios is POST /api/v1/scenarios: the body is one scenario
// document (same schema as the CLI's -scenario files), validated by the
// strict scenario.Parse; a sweep expands into its grid. The whole sweep is
// priced as the sum of its variants and admitted through the weighted FIFO
// gate once; its variant × artifact computes then run variant-major on one
// Jobs-wide pool, and each variant's NDJSON line streams back, in grid
// order, as soon as that variant's artifacts are done.
//
// Scenario computes never consult peer replicas: the internal result
// exchange carries only mesh-n, so a peer could not reconstruct the
// scenario; the local solve is the base case that is always correct.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	arts := s.order
	if only := q.Get("only"); only != "" {
		arts = nil
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			a, ok := s.byID[id]
			if !ok {
				apiError(w, http.StatusBadRequest, "unknown artifact %q (GET /api/v1/artifacts for the index)", id)
				return
			}
			arts = append(arts, a)
		}
	}
	meshN := 0
	if v := q.Get("mesh-n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			apiError(w, http.StatusBadRequest, "mesh-n %q is not an integer", v)
			return
		}
		if err := repro.ValidateMeshN(n); err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		meshN = n
	}
	body, err := readBody(w, r, scenario.MaxFileBytes)
	if err != nil {
		apiError(w, bodyErrStatus(err), "reading scenario body: %v", err)
		return
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	variants, err := sc.Variants()
	if err != nil {
		apiError(w, http.StatusBadRequest, "expanding sweep: %v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	release := s.admit(ctx, w, int64(len(variants))*int64(len(arts))*weight(meshN))
	if release == nil {
		return
	}
	for _, v := range variants {
		s.met.scenarioComputes.With(s.scenarioLabel(v.Name)).Inc()
	}
	// The sweep owns the gate units until its last compute returns, even
	// after the handler stops waiting: the gate bounds real solver
	// concurrency. ctx carries both the request deadline and the client
	// disconnect, so a hung-up stream stops starting new computes. lines
	// holds every variant, so the sweep never blocks on a handler that
	// has walked away.
	lines := make(chan variantLine, len(variants))
	go func() {
		defer release()
		pool, opts := runner.Pool{Workers: s.jobs}, repro.Options{MeshN: meshN}
		repro.Sweep(ctx, pool, arts, opts, variants, func(i int, res []*result.Result, err error) {
			line := variantLine{Scenario: variants[i].Name, Key: variants[i].Key()}
			for _, r := range res {
				if r != nil {
					line.Artifacts = append(line.Artifacts, r)
				}
			}
			if err != nil {
				line.Error = err.Error()
			}
			lines <- line
		})
	}()

	// Stream in grid order. The header commits before the first variant
	// finishes, so failures from here on are typed lines, not status codes.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	timedOut := false
	for _, v := range variants {
		line := variantLine{Scenario: v.Name, Key: v.Key()}
		// A variant settled after the deadline (its computes skipped or
		// finishing late) is never collected: ctx is checked before the
		// wait, and the sweep can only emit it after ctx is done.
		collected := false
		if !timedOut && ctx.Err() == nil {
			select {
			case line = <-lines:
				collected = true
			case <-ctx.Done():
			}
		}
		if !collected {
			// Stop waiting but keep emitting one line per variant so the
			// stream stays parseable and complete. The abandoned computes
			// finish into the cache before the gate units are released.
			if !timedOut {
				s.met.timeouts.Inc()
				timedOut = true
			}
			line.Error = "request deadline exceeded before this variant was collected"
		}
		if err := enc.Encode(line); err != nil {
			return // client hung up; the sweep drains on ctx
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
