package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1), interpolating
// linearly between closest ranks. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is 0 for a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	SelfS  float64 `json:"self_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one pointer test.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartS: now, EndS: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].EndS = now
	t.mu.Unlock()
}

// snapshot returns the spans so far with every span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children of one span may overlap when they ran in parallel.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].StartS < ch[b].StartS })
		covered, curLo, curHi := 0.0, 0.0, -1.0
		for _, c := range ch {
			lo, hi := math.Max(c.StartS, s.StartS), math.Min(c.EndS, s.EndS)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		s.SelfS = s.EndS - s.StartS - covered
	}
	return append([]span(nil), t.spans...)
}

// durations returns the durations in seconds of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.EndS-s.StartS)
		}
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// memSampler tracks the heap bytes held by objects while a timed phase
// runs, and the bytes allocated over it. The peak it reports is the 99th
// percentile of samples taken every 2 ms: the heap in a report peaks
// between garbage collections that run every few tens of milliseconds,
// and the highest single sample depends on where they fell.
type memSampler struct {
	stop     chan struct{}
	done     chan struct{}
	samples  []float64 // bytes
	alloc0   uint64
	allocEnd uint64
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startMem begins sampling the heap every 2 ms until stopMem.
func startMem() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{}), alloc0: readMetric(heapAllocs)}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			m.samples = append(m.samples, float64(readMetric(heapObjects)))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stopMem ends sampling and waits for the sampler to exit; the samples
// and the allocation total are safe to read afterwards.
func (m *memSampler) stopMem() {
	m.allocEnd = readMetric(heapAllocs)
	close(m.stop)
	<-m.done
}

func (m *memSampler) peakMB() float64  { return quantile(m.samples, 0.99) / 1e6 }
func (m *memSampler) allocMB() float64 { return float64(m.allocEnd-m.alloc0) / 1e6 }
