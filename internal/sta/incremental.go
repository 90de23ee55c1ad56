package sta

import (
	"math"
	"slices"

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
// NewIncremental snapshots the graph structure (Inputs, Fanouts, IsPO) into
// flat arrays; edits may change any gate field that enters GateDelay, but a
// structural edit needs a new Incremental.
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

	// fanin[faninAt[i]:faninAt[i+1]] are gate i's non-PI fanins in Inputs
	// order; fanout[fanoutAt[i]:fanoutAt[i+1]] its Fanouts.
	faninAt, fanin, fanoutAt, fanout []int32
	isPO                             []bool
	// level is 0 for a gate fed only by PIs, else one more than its
	// deepest fanin, so every fanout sits on a higher level.
	level []int32
	// bucket[levelAt[l]:levelAt[l]+queuedAt[l]] are the gates queued on
	// level l; each level's slot range holds every gate of that level.
	bucket, levelAt, queuedAt []int32
	// hi is the highest level queued this trial.
	hi int32

	// epoch identifies the current trial; a stamp equal to it means the
	// gate's slot was written this trial.
	epoch uint32
	// savedArr/savedDelay stamp the gates whose pre-trial arrival/delay
	// sits in oldArr/oldDelay; queued stamps the gates in the buckets.
	savedArr, savedDelay, queued []uint32
	oldArr, oldDelay             []float64
	// arrUndo/delayUndo list the stamped gates, for rollback.
	arrUndo, delayUndo []int32
}

// NewIncremental analyzes the circuit and returns an incremental view. The
// circuit must currently meet its period.
func NewIncremental(c *netlist.Circuit) *Incremental {
	r := Analyze(c)
	n := len(c.Gates)
	// Every fanout edge is a non-PI fanin edge seen from the other end.
	edges := 0
	for i := range c.Gates {
		edges += len(c.Gates[i].Fanouts)
	}
	inc := &Incremental{
		c:          c,
		ArrivalS:   r.ArrivalS,
		DelayS:     r.DelayS,
		PeriodS:    r.PeriodS,
		eps:        r.PeriodS * 1e-12,
		faninAt:    make([]int32, n+1),
		fanin:      make([]int32, 0, edges),
		fanoutAt:   make([]int32, n+1),
		fanout:     make([]int32, 0, edges),
		isPO:       make([]bool, n),
		level:      make([]int32, n),
		bucket:     make([]int32, n),
		savedArr:   make([]uint32, n),
		savedDelay: make([]uint32, n),
		queued:     make([]uint32, n),
		oldArr:     make([]float64, n),
		oldDelay:   make([]float64, n),
		// Each gate enters each list at most once per trial, so capacity
		// n means no trial ever grows them.
		arrUndo:   make([]int32, 0, n),
		delayUndo: make([]int32, 0, n),
	}
	// Gates are topological, so one forward pass levels them.
	levels := int32(0)
	for i := range c.Gates {
		g := &c.Gates[i]
		lvl := int32(0)
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); isPI {
				continue
			}
			inc.fanin = append(inc.fanin, int32(ref))
			lvl = max(lvl, inc.level[ref]+1)
		}
		for _, fo := range g.Fanouts {
			inc.fanout = append(inc.fanout, int32(fo))
		}
		inc.faninAt[i+1] = int32(len(inc.fanin))
		inc.fanoutAt[i+1] = int32(len(inc.fanout))
		inc.isPO[i] = g.IsPO
		inc.level[i] = lvl
		levels = max(levels, lvl+1)
	}
	inc.levelAt = make([]int32, levels+1)
	inc.queuedAt = make([]int32, levels)
	for _, l := range inc.level {
		inc.levelAt[l+1]++
	}
	for l := range levels {
		inc.levelAt[l+1] += inc.levelAt[l]
	}
	return inc
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
	inc.hi = -1
}

func (inc *Incremental) push(i int32) {
	if inc.queued[i] == inc.epoch {
		return
	}
	inc.queued[i] = inc.epoch
	l := inc.level[i]
	inc.bucket[inc.levelAt[l]+inc.queuedAt[l]] = i
	inc.queuedAt[l]++
	inc.hi = max(inc.hi, l)
}

// TryUpdate repropagates timing after the caller mutated the given gates.
// It returns ok = true when every primary output still meets the period; in
// that case the edit is committed. When ok = false the engine has already
// restored its arrays and the caller must revert its own field mutations.
//
// Levels are drained in ascending order and a gate only queues its
// fanouts, which sit on higher levels, so each queued gate is repropagated
// exactly once, from its fanins' final arrivals. Its arrival is then the
// same max over the same fanin arrivals plus the same delay that
// sta.Analyze computes, whatever order gates within a level take.
func (inc *Incremental) TryUpdate(changed ...int) bool {
	inc.nextEpoch()
	ep := inc.epoch
	lo := int32(len(inc.queuedAt))
	for _, i := range changed {
		// The changed list may contain duplicates (e.g. a driver feeding
		// two pins of the same gate); only the first sighting holds the
		// pre-trial delay.
		if inc.savedDelay[i] != ep {
			inc.savedDelay[i] = ep
			inc.oldDelay[i] = inc.DelayS[i]
			inc.delayUndo = append(inc.delayUndo, int32(i))
		}
		inc.DelayS[i] = inc.c.GateDelay(&inc.c.Gates[i])
		inc.push(int32(i))
		lo = min(lo, inc.level[i])
	}
	ok := true
drain:
	for l := lo; l <= inc.hi; l++ {
		// Pushes from level l land on higher levels, so this bucket's
		// length is fixed while it drains.
		at := inc.levelAt[l]
		for _, i := range inc.bucket[at : at+inc.queuedAt[l]] {
			in := 0.0
			for _, ref := range inc.fanin[inc.faninAt[i]:inc.faninAt[i+1]] {
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
			if inc.isPO[i] && newArr > inc.PeriodS+inc.eps {
				ok = false
				break drain
			}
			for _, fo := range inc.fanout[inc.fanoutAt[i]:inc.fanoutAt[i+1]] {
				inc.push(fo)
			}
		}
	}
	// Empty every bucket this trial filled, including those a rejection
	// left undrained.
	if lo <= inc.hi {
		clear(inc.queuedAt[lo : inc.hi+1])
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

// Slack returns every gate's slack against PeriodS from the tracked
// ArrivalS and DelayS, written into dst (grown only when too short). It is
// the backward pass of sta.Analyze, so when the tracked arrays equal a
// fresh analysis and the circuit's ClockPeriodS is PeriodS, the slacks
// equal its SlackS bit for bit.
func (inc *Incremental) Slack(dst []float64) []float64 {
	n := len(inc.ArrivalS)
	dst = slices.Grow(dst[:0], n)[:n]
	// dst holds required times until gate i is reached; by then all of
	// i's fanouts, which have higher IDs, have tightened dst[i].
	for i := range dst {
		dst[i] = math.Inf(1)
	}
	for i := n - 1; i >= 0; i-- {
		req := dst[i]
		if inc.isPO[i] && inc.PeriodS < req {
			req = inc.PeriodS
		}
		need := req - inc.DelayS[i]
		for _, ref := range inc.fanin[inc.faninAt[i]:inc.faninAt[i+1]] {
			if need < dst[ref] {
				dst[ref] = need
			}
		}
		dst[i] = req - inc.ArrivalS[i]
	}
	return dst
}

// WorstArrival returns the worst PO arrival currently recorded.
func (inc *Incremental) WorstArrival() float64 {
	worst := 0.0
	for i, po := range inc.isPO {
		if po && inc.ArrivalS[i] > worst {
			worst = inc.ArrivalS[i]
		}
	}
	return worst
}

// Met reports whether the tracked state meets the period.
func (inc *Incremental) Met() bool {
	return inc.WorstArrival() <= inc.PeriodS+inc.eps
}
