package sta

import (
	"math"
	"math/rand"
	"testing"

	"nanometer/internal/gate"
	"nanometer/internal/netlist"
)

// chain builds a hand-analyzable linear chain of n inverters.
func chain(t *testing.T, n int) *netlist.Circuit {
	t.Helper()
	tech := netlist.MustNewTech(100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 1, PIActivity: 0.1}
	for i := 0; i < n; i++ {
		in := netlist.PI(0)
		if i > 0 {
			in = i - 1
		}
		c.Gates = append(c.Gates, netlist.Gate{
			ID: i, Kind: gate.Inv, Inputs: []int{in}, Size: 2, WireCapF: 1e-15,
		})
	}
	c.Rebuild()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func genCircuit(t *testing.T, gates int, seed int64) *netlist.Circuit {
	t.Helper()
	tech := netlist.MustNewTech(100, 0.65)
	p := netlist.DefaultGenParams()
	p.Gates = gates
	p.Seed = seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SetPeriodFromCritical(c, 1.1); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainArrivals(t *testing.T) {
	c := chain(t, 5)
	r := Analyze(c)
	// Arrival must accumulate gate delays exactly.
	sum := 0.0
	for i := 0; i < 5; i++ {
		sum += r.DelayS[i]
		if math.Abs(r.ArrivalS[i]-sum) > 1e-18 {
			t.Fatalf("arrival[%d] = %g, want %g", i, r.ArrivalS[i], sum)
		}
	}
	if r.MaxDelayS != r.ArrivalS[4] {
		t.Fatalf("critical delay must equal the sink arrival")
	}
	// With period = critical delay, every gate on the chain has zero slack.
	for i := range r.SlackS {
		if math.Abs(r.SlackS[i]) > 1e-15 {
			t.Fatalf("chain slack[%d] = %g, want 0", i, r.SlackS[i])
		}
	}
	if len(r.CriticalPath) != 5 {
		t.Fatalf("critical path length %d, want 5", len(r.CriticalPath))
	}
}

func TestSlackConsistency(t *testing.T) {
	c := genCircuit(t, 800, 1)
	r := Analyze(c)
	if !r.Met() {
		t.Fatalf("10%% guard must meet timing")
	}
	for i := range c.Gates {
		// Slack = required − arrival by definition.
		if math.Abs(r.SlackS[i]-(r.RequiredS[i]-r.ArrivalS[i])) > 1e-18 {
			t.Fatalf("slack identity broken at gate %d", i)
		}
	}
	// Worst slack must equal the guard margin on the critical path.
	wantWorst := r.PeriodS - r.MaxDelayS
	if math.Abs(r.WorstSlackS-wantWorst) > 1e-15 {
		t.Fatalf("worst slack %g, want %g", r.WorstSlackS, wantWorst)
	}
}

func TestCriticalPathIsConnectedAndCritical(t *testing.T) {
	c := genCircuit(t, 800, 2)
	r := Analyze(c)
	cp := r.CriticalPath
	if len(cp) == 0 {
		t.Fatalf("no critical path")
	}
	last := cp[len(cp)-1]
	if !c.Gates[last].IsPO || math.Abs(r.ArrivalS[last]-r.MaxDelayS) > 1e-18 {
		t.Fatalf("critical path must end at the worst PO")
	}
	for i := 1; i < len(cp); i++ {
		found := false
		for _, ref := range c.Gates[cp[i]].Inputs {
			if ref == cp[i-1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("critical path edge %d→%d is not a netlist edge", cp[i-1], cp[i])
		}
	}
	// Path delay must sum to the critical delay.
	sum := 0.0
	for _, g := range cp {
		sum += r.DelayS[g]
	}
	if math.Abs(sum-r.MaxDelayS) > 1e-15 {
		t.Fatalf("critical path delays sum to %g, want %g", sum, r.MaxDelayS)
	}
}

func TestSetPeriodFromCritical(t *testing.T) {
	c := chain(t, 4)
	p, err := SetPeriodFromCritical(c, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(c)
	if math.Abs(p-1.2*r.MaxDelayS) > 1e-18 {
		t.Fatalf("period %g, want 1.2× critical %g", p, r.MaxDelayS)
	}
	if _, err := SetPeriodFromCritical(c, 0.9); err == nil {
		t.Fatalf("guard < 1 must error")
	}
}

func TestPathUtilization(t *testing.T) {
	c := genCircuit(t, 800, 3)
	r := Analyze(c)
	u0 := r.PathUtilization(c, 0.0)
	u1 := r.PathUtilization(c, 1.0)
	uHalf := r.PathUtilization(c, 0.5)
	if u0 != 0 || u1 != 1 {
		t.Fatalf("utilization bounds broken: %g, %g", u0, u1)
	}
	if uHalf <= 0 || uHalf >= 1 {
		t.Fatalf("half-cycle utilization = %g, expected interior value", uHalf)
	}
}

func TestSlackHistogram(t *testing.T) {
	c := genCircuit(t, 500, 4)
	r := Analyze(c)
	h := r.SlackHistogram(10)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(c.Gates) {
		t.Fatalf("histogram counts %d, want %d", total, len(c.Gates))
	}
}

// The incremental engine must agree exactly with full re-analysis under a
// random edit sequence, and rollbacks must restore the previous state.
func TestIncrementalMatchesFullSTA(t *testing.T) {
	c := genCircuit(t, 600, 5)
	inc := NewIncremental(c)
	rng := rand.New(rand.NewSource(9))
	accepted, rejected := 0, 0
	for step := 0; step < 300; step++ {
		i := rng.Intn(len(c.Gates))
		g := &c.Gates[i]
		oldSize, oldVth, oldVdd := g.Size, g.VthClass, g.VddClass
		switch rng.Intn(3) {
		case 0:
			g.Size = math.Max(0.5, g.Size*(0.6+rng.Float64()))
		case 1:
			g.VthClass = 1 - g.VthClass
		case 2:
			g.VddClass = 1 - g.VddClass
		}
		seeds := []int{i}
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); !isPI {
				seeds = append(seeds, ref)
			}
		}
		if inc.TryUpdate(seeds...) {
			accepted++
		} else {
			g.Size, g.VthClass, g.VddClass = oldSize, oldVth, oldVdd
			rejected++
		}
		// Invariant: incremental arrays match a fresh full analysis.
		full := Analyze(c)
		for k := range full.ArrivalS {
			if math.Abs(full.ArrivalS[k]-inc.ArrivalS[k]) > 1e-16+1e-9*full.ArrivalS[k] {
				t.Fatalf("step %d: arrival[%d] diverged: %g vs %g", step, k, inc.ArrivalS[k], full.ArrivalS[k])
			}
		}
		if !full.Met() {
			t.Fatalf("step %d: incremental accepted a violating state", step)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("edit mix should include accepts and rejects (%d/%d)", accepted, rejected)
	}
}

func TestIncrementalDuplicateFanins(t *testing.T) {
	// A driver feeding two pins of the same gate: duplicate seeds must not
	// corrupt the rollback (regression for the flow-violation bug).
	tech := netlist.MustNewTech(100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 1}
	c.Gates = []netlist.Gate{
		{ID: 0, Kind: gate.Inv, Inputs: []int{netlist.PI(0)}, Size: 2, WireCapF: 1e-15},
		{ID: 1, Kind: gate.Nand, Inputs: []int{0, 0}, Size: 2, WireCapF: 1e-15},
	}
	c.Rebuild()
	if _, err := SetPeriodFromCritical(c, 1.0); err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(c)
	g := &c.Gates[1]
	old := g.Size
	g.Size = 0.5 // big slowdown on the (zero-slack) critical path → reject
	if inc.TryUpdate(1, 0, 0) {
		t.Fatalf("edit on a zero-slack path should be rejected")
	}
	g.Size = old
	full := Analyze(c)
	for k := range full.DelayS {
		if math.Abs(full.DelayS[k]-inc.DelayS[k]) > 1e-18 {
			t.Fatalf("rollback left stale delay at gate %d", k)
		}
	}
}

func TestIncrementalMetAndWorstArrival(t *testing.T) {
	c := genCircuit(t, 300, 6)
	inc := NewIncremental(c)
	full := Analyze(c)
	if !inc.Met() {
		t.Fatalf("fresh incremental view must meet timing")
	}
	if math.Abs(inc.WorstArrival()-full.MaxDelayS) > 1e-15 {
		t.Fatalf("worst arrival mismatch")
	}
}

// trialSeeds lists the gates whose delay an edit of gate i may change: i
// itself and its gate fanins, whose load includes i's pin capacitance.
func trialSeeds(c *netlist.Circuit, i int) []int {
	seeds := []int{i}
	for _, ref := range c.Gates[i].Inputs {
		if _, isPI := netlist.IsPI(ref); !isPI {
			seeds = append(seeds, ref)
		}
	}
	return seeds
}

// The incremental engine must reproduce a fresh full analysis bit for bit:
// it recomputes each touched arrival as the same max over the same fanins
// plus the same delay, so no tolerance is allowed. Slack, the backward pass
// over the tracked arrays, must match the full analysis' slacks the same
// way. The edit stream mixes
// size changes, Vth flips and Vdd flips with the level-converter flag
// toggled, seeds with duplicate fanins, and accepted and rolled-back
// trials.
func TestIncrementalDifferentialExact(t *testing.T) {
	for _, gates := range []int{60, 300, 900} {
		for _, seed := range []int64{11, 12, 13} {
			c := genCircuit(t, gates, seed)
			inc := NewIncremental(c)
			rng := rand.New(rand.NewSource(seed * 31))
			var slack []float64
			accepted, rejected := 0, 0
			for step := 0; step < 340; step++ {
				i := rng.Intn(len(c.Gates))
				g := &c.Gates[i]
				oldSize, oldVth, oldVdd, oldLC := g.Size, g.VthClass, g.VddClass, g.NeedsLC
				switch rng.Intn(3) {
				case 0:
					g.Size = math.Max(0.5, g.Size*(0.5+rng.Float64()))
				case 1:
					g.VthClass = 1 - g.VthClass
				case 2:
					g.VddClass = 1 - g.VddClass
					g.NeedsLC = !g.NeedsLC
				}
				seeds := trialSeeds(c, i)
				if rng.Intn(2) == 0 {
					seeds = append(seeds, seeds[rng.Intn(len(seeds))])
				}
				if inc.TryUpdate(seeds...) {
					accepted++
				} else {
					g.Size, g.VthClass, g.VddClass, g.NeedsLC = oldSize, oldVth, oldVdd, oldLC
					rejected++
				}
				full := Analyze(c)
				slack = inc.Slack(slack)
				for k := range full.ArrivalS {
					if inc.ArrivalS[k] != full.ArrivalS[k] || inc.DelayS[k] != full.DelayS[k] {
						t.Fatalf("gates=%d seed=%d step %d: gate %d arrival %v delay %v, full analysis %v / %v",
							gates, seed, step, k, inc.ArrivalS[k], inc.DelayS[k], full.ArrivalS[k], full.DelayS[k])
					}
					if slack[k] != full.SlackS[k] {
						t.Fatalf("gates=%d seed=%d step %d: gate %d slack %v, full analysis %v",
							gates, seed, step, k, slack[k], full.SlackS[k])
					}
				}
			}
			if accepted == 0 || rejected == 0 {
				t.Fatalf("gates=%d seed=%d: edit mix should include accepts and rejects (%d/%d)",
					gates, seed, accepted, rejected)
			}
		}
	}
}

// A warmed incremental view must run accepted and rejected trials, and
// Slack into a caller-owned buffer, without allocating.
func TestIncrementalTrialsDoNotAllocate(t *testing.T) {
	c := genCircuit(t, 600, 7)
	r := Analyze(c)
	inc := NewIncremental(c)

	// Accepted: toggle the size of the gate with the most slack.
	loose := 0
	for i := range r.SlackS {
		if r.SlackS[i] > r.SlackS[loose] {
			loose = i
		}
	}
	g := &c.Gates[loose]
	sizes := [2]float64{g.Size, g.Size * 1.05}
	looseSeeds := trialSeeds(c, loose)
	flip := 0
	if n := testing.AllocsPerRun(50, func() {
		flip = 1 - flip
		g.Size = sizes[flip]
		if !inc.TryUpdate(looseSeeds...) {
			t.Fatalf("resizing the slackest gate must be accepted")
		}
	}); n != 0 {
		t.Fatalf("accepted trial allocates %v times", n)
	}

	// Rejected: starve a gate on the critical path, then roll back.
	crit := r.CriticalPath[len(r.CriticalPath)/2]
	cg := &c.Gates[crit]
	critSeeds := trialSeeds(c, crit)
	if n := testing.AllocsPerRun(50, func() {
		old := cg.Size
		cg.Size = old * 0.05
		if inc.TryUpdate(critSeeds...) {
			t.Fatalf("starving a critical gate must be rejected")
		}
		cg.Size = old
	}); n != 0 {
		t.Fatalf("rejected trial allocates %v times", n)
	}

	dst := make([]float64, len(c.Gates))
	if n := testing.AllocsPerRun(50, func() {
		dst = inc.Slack(dst)
	}); n != 0 {
		t.Fatalf("Slack into a sized buffer allocates %v times", n)
	}
}

// levelSkew builds a netlist whose gate IDs disagree with its levels: gate
// 4 has a high ID but sits on level 0, and its fanout cone reconverges at
// gate 8. Its first fanout, gate 5, is a primary output sharing level 1
// with gate 6.
//
//	PI0 → 0 → 1 → 2 → 3 ─────────→ 9 (PO)
//	PI1 → 4 → 5 (PO)               ↑
//	      4 → 6 (with 0) ─→ 8 ─────┘
//	      4 → 7 (with 1) ─↗
func levelSkew(t *testing.T) *netlist.Circuit {
	t.Helper()
	tech := netlist.MustNewTech(100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 2}
	for i, in := range [][]int{
		{netlist.PI(0)}, {0}, {1}, {2},
		{netlist.PI(1)}, {4}, {4, 0}, {4, 1}, {6, 7}, {3, 8},
	} {
		kind := gate.Inv
		if len(in) == 2 {
			kind = gate.Nand
		}
		c.Gates = append(c.Gates, netlist.Gate{ID: i, Kind: kind, Inputs: in, Size: 2, WireCapF: 1e-15})
	}
	c.Rebuild()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := SetPeriodFromCritical(c, 1.0); err != nil {
		t.Fatal(err)
	}
	return c
}

// Repropagation runs level by level, not in ID order. A rejected trial that
// stops partway through a level must leave no queued gate behind, and both
// it and a following accepted trial must leave the view equal to a fresh
// analysis.
func TestIncrementalLevelOrderNotIDOrder(t *testing.T) {
	c := levelSkew(t)
	inc := NewIncremental(c)
	if inc.level[4] != 0 || inc.level[3] != 3 || inc.level[5] != 1 || inc.level[6] != 1 {
		t.Fatalf("levels %v: gate 4 must sit below gate 3, and gates 5 and 6 share level 1", inc.level)
	}
	check := func(trial string) {
		t.Helper()
		full := Analyze(c)
		for k := range full.ArrivalS {
			if inc.ArrivalS[k] != full.ArrivalS[k] || inc.DelayS[k] != full.DelayS[k] {
				t.Fatalf("after %s: gate %d arrival %v delay %v, full analysis %v / %v",
					trial, k, inc.ArrivalS[k], inc.DelayS[k], full.ArrivalS[k], full.DelayS[k])
			}
		}
		for l, q := range inc.queuedAt {
			if q != 0 {
				t.Fatalf("after %s: level %d still has %d queued gates", trial, l, q)
			}
		}
	}

	// Starving gate 4 queues gates 5 and 6 on level 1 and gate 7 on level
	// 2; gate 5, an output, violates first, so the trial stops with gate 6
	// and level 2 still queued.
	g := &c.Gates[4]
	old := g.Size
	g.Size = old * 0.01
	if inc.TryUpdate(4) {
		t.Fatalf("starving gate 4 must be rejected")
	}
	g.Size = old
	check("rejected trial")

	g.Size = old * 2
	if !inc.TryUpdate(4) {
		t.Fatalf("upsizing gate 4 must be accepted")
	}
	check("accepted trial")
}
