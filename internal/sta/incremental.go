package sta

import (
	"nanometer/internal/netlist"
)

// Incremental is an incremental timing view of a circuit that supports
// trial edits with rollback — the engine under the CVS, dual-Vth, and
// re-sizing greedy loops. The caller mutates gate fields (Vdd/Vth class,
// size), then calls TryUpdate with the set of gates whose *delay* may have
// changed; the engine repropagates arrivals through the affected cone and
// reports whether the period still holds. Rejected edits are rolled back by
// the engine (the caller un-mutates its own fields).
//
// A trial allocates nothing: the undo state lives in dense per-gate arrays
// sized once by NewIncremental and stamped with a per-trial epoch, so
// "saved this trial" is savedArr[i] == epoch and rollback walks only the
// gates the trial touched.
type Incremental struct {
	c *netlist.Circuit
	// ArrivalS and DelayS mirror the Result fields and stay current.
	ArrivalS, DelayS []float64
	// PeriodS is the constraint.
	PeriodS float64

	eps float64

	// epoch identifies the current trial; a stamp equal to it means the
	// gate's slot was written this trial.
	epoch uint32
	// savedArr/savedDelay stamp the gates whose pre-trial arrival/delay
	// sits in oldArr/oldDelay; queued stamps the gates in the heap.
	savedArr, savedDelay, queued []uint32
	oldArr, oldDelay             []float64
	// arrUndo/delayUndo list the stamped gates, for rollback.
	arrUndo, delayUndo []int
	heap               gateHeap
}

// NewIncremental analyzes the circuit and returns an incremental view. The
// circuit must currently meet its period.
func NewIncremental(c *netlist.Circuit) *Incremental {
	r := Analyze(c)
	n := len(c.Gates)
	return &Incremental{
		c:          c,
		ArrivalS:   r.ArrivalS,
		DelayS:     r.DelayS,
		PeriodS:    r.PeriodS,
		eps:        r.PeriodS * 1e-12,
		savedArr:   make([]uint32, n),
		savedDelay: make([]uint32, n),
		queued:     make([]uint32, n),
		oldArr:     make([]float64, n),
		oldDelay:   make([]float64, n),
		// Each gate enters each list at most once per trial, so capacity
		// n means no trial ever grows them.
		arrUndo:   make([]int, 0, n),
		delayUndo: make([]int, 0, n),
		heap:      make(gateHeap, 0, n),
	}
}

// gateHeap is a min-heap of gate IDs (topological order).
type gateHeap []int

func (h *gateHeap) push(i int) {
	s := append(*h, i)
	for j := len(s) - 1; j > 0; {
		p := (j - 1) / 2
		if s[p] <= s[j] {
			break
		}
		s[p], s[j] = s[j], s[p]
		j = p
	}
	*h = s
}

func (h *gateHeap) pop() int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for j := 0; ; {
		m, l, r := j, 2*j+1, 2*j+2
		if l < last && s[l] < s[m] {
			m = l
		}
		if r < last && s[r] < s[m] {
			m = r
		}
		if m == j {
			break
		}
		s[j], s[m] = s[m], s[j]
		j = m
	}
	*h = s
	return top
}

// nextEpoch starts a trial. When the counter wraps, every stamp is cleared
// once so no stale stamp can equal a reused epoch.
func (inc *Incremental) nextEpoch() {
	inc.epoch++
	if inc.epoch == 0 {
		clear(inc.savedArr)
		clear(inc.savedDelay)
		clear(inc.queued)
		inc.epoch = 1
	}
	inc.arrUndo = inc.arrUndo[:0]
	inc.delayUndo = inc.delayUndo[:0]
	inc.heap = inc.heap[:0]
}

func (inc *Incremental) push(i int) {
	if inc.queued[i] != inc.epoch {
		inc.queued[i] = inc.epoch
		inc.heap.push(i)
	}
}

// TryUpdate repropagates timing after the caller mutated the given gates.
// It returns ok = true when every primary output still meets the period; in
// that case the edit is committed. When ok = false the engine has already
// restored its arrays and the caller must revert its own field mutations.
func (inc *Incremental) TryUpdate(changed ...int) bool {
	inc.nextEpoch()
	ep := inc.epoch
	for _, i := range changed {
		// The changed list may contain duplicates (e.g. a driver feeding
		// two pins of the same gate); only the first sighting holds the
		// pre-trial delay.
		if inc.savedDelay[i] != ep {
			inc.savedDelay[i] = ep
			inc.oldDelay[i] = inc.DelayS[i]
			inc.delayUndo = append(inc.delayUndo, i)
		}
		inc.DelayS[i] = inc.c.GateDelay(&inc.c.Gates[i])
		inc.push(i)
	}
	ok := true
	for len(inc.heap) > 0 {
		i := inc.heap.pop()
		inc.queued[i] = 0
		g := &inc.c.Gates[i]
		in := 0.0
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); isPI {
				continue
			}
			if a := inc.ArrivalS[ref]; a > in {
				in = a
			}
		}
		newArr := in + inc.DelayS[i]
		if newArr == inc.ArrivalS[i] {
			continue
		}
		if inc.savedArr[i] != ep {
			inc.savedArr[i] = ep
			inc.oldArr[i] = inc.ArrivalS[i]
			inc.arrUndo = append(inc.arrUndo, i)
		}
		inc.ArrivalS[i] = newArr
		if g.IsPO && newArr > inc.PeriodS+inc.eps {
			ok = false
			break
		}
		for _, fo := range g.Fanouts {
			inc.push(fo)
		}
	}
	if !ok {
		for _, i := range inc.arrUndo {
			inc.ArrivalS[i] = inc.oldArr[i]
		}
		for _, i := range inc.delayUndo {
			inc.DelayS[i] = inc.oldDelay[i]
		}
	}
	return ok
}

// WorstArrival returns the worst PO arrival currently recorded.
func (inc *Incremental) WorstArrival() float64 {
	worst := 0.0
	for i := range inc.c.Gates {
		if inc.c.Gates[i].IsPO && inc.ArrivalS[i] > worst {
			worst = inc.ArrivalS[i]
		}
	}
	return worst
}

// Met reports whether the tracked state meets the period.
func (inc *Incremental) Met() bool {
	return inc.WorstArrival() <= inc.PeriodS+inc.eps
}
