package netlist

import (
	"testing"

	"nanometer/internal/gate"
	"nanometer/internal/units"
)

func genTest(t *testing.T, gates int, seed int64) *Circuit {
	t.Helper()
	tech := MustNewTech(100, 0.65)
	p := DefaultGenParams()
	p.Gates = gates
	p.Seed = seed
	c, err := Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateValid(t *testing.T) {
	c := genTest(t, 800, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Gates != 800 {
		t.Fatalf("got %d gates, want 800", st.Gates)
	}
	if st.POs == 0 || st.POs >= st.Gates/2 {
		t.Fatalf("PO count %d implausible", st.POs)
	}
	if len(st.ByKind) < 3 {
		t.Fatalf("generator should mix INV/NAND/NOR, got %v", st.ByKind)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTest(t, 500, 7)
	b := genTest(t, 500, 7)
	for i := range a.Gates {
		ga, gb := a.Gates[i], b.Gates[i]
		if ga.Kind != gb.Kind || len(ga.Inputs) != len(gb.Inputs) || ga.WireCapF != gb.WireCapF {
			t.Fatalf("gate %d differs between identical seeds", i)
		}
	}
	cOther := genTest(t, 500, 8)
	diff := false
	for i := range a.Gates {
		if a.Gates[i].Kind != cOther.Gates[i].Kind || len(a.Gates[i].Inputs) != len(cOther.Gates[i].Inputs) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("different seeds should give different circuits")
	}
}

func TestGenerateErrors(t *testing.T) {
	tech := MustNewTech(100, 0.65)
	p := DefaultGenParams()
	p.Gates = 2
	if _, err := Generate(tech, p); err == nil {
		t.Fatalf("tiny gate count must error")
	}
	p = DefaultGenParams()
	p.Levels = 1
	if _, err := Generate(tech, p); err == nil {
		t.Fatalf("single level must error")
	}
}

func TestFanoutConsistency(t *testing.T) {
	c := genTest(t, 600, 3)
	// Every fanout edge must correspond to an input edge and vice versa.
	inEdges := 0
	for i := range c.Gates {
		for _, ref := range c.Gates[i].Inputs {
			if _, isPI := IsPI(ref); !isPI {
				inEdges++
				found := false
				for _, fo := range c.Gates[ref].Fanouts {
					if fo == i {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("edge %d→%d missing from fanout list", ref, i)
				}
			}
		}
	}
	outEdges := 0
	for i := range c.Gates {
		outEdges += len(c.Gates[i].Fanouts)
	}
	if inEdges != outEdges {
		t.Fatalf("edge count mismatch: %d in vs %d out", inEdges, outEdges)
	}
}

func TestPIEncoding(t *testing.T) {
	for i := 0; i < 10; i++ {
		ref := PI(i)
		got, ok := IsPI(ref)
		if !ok || got != i {
			t.Fatalf("PI round trip failed for %d", i)
		}
	}
	if _, ok := IsPI(5); ok {
		t.Fatalf("non-negative refs are gates")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	base := genTest(t, 100, 1)
	mutate := []func(*Circuit){
		func(c *Circuit) { c.Gates[5].Size = 0 },
		func(c *Circuit) { c.Gates[5].VddClass = 9 },
		func(c *Circuit) { c.Gates[5].VthClass = -1 },
		func(c *Circuit) { c.Gates[5].Inputs = nil },
		func(c *Circuit) { c.Gates[5].Inputs = []int{99} },         // forward reference
		func(c *Circuit) { c.Gates[5].Inputs = []int{PI(100000)} }, // bad PI
		func(c *Circuit) { c.Gates[5].ID = 7 },
		func(c *Circuit) { c.Tech = nil },
	}
	for i, m := range mutate {
		c := base.Clone()
		m(c)
		if err := c.Validate(); err == nil {
			t.Errorf("violation %d not caught", i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := genTest(t, 100, 1)
	b := a.Clone()
	b.Gates[3].Size = 99
	b.Gates[3].Inputs[0] = PI(0)
	if a.Gates[3].Size == 99 {
		t.Fatalf("clone shares gate storage")
	}
	if a.Gates[3].Inputs[0] == PI(0) && a.Gates[3].Inputs[0] != b.Gates[3].Inputs[0] {
		t.Fatalf("clone shares input slices")
	}
}

func TestLoadOnComposition(t *testing.T) {
	c := genTest(t, 300, 2)
	// Find a gate with fanouts.
	for i := range c.Gates {
		g := &c.Gates[i]
		if len(g.Fanouts) == 0 {
			continue
		}
		load := c.LoadOn(g)
		if load <= g.WireCapF {
			t.Fatalf("load must include fanout pins beyond the wire")
		}
		// Attaching a level converter adds load.
		g.NeedsLC = true
		if c.LoadOn(g) <= load {
			t.Fatalf("level converter must add load")
		}
		g.NeedsLC = false
		return
	}
	t.Fatalf("no gate with fanouts found")
}

func TestTechLevels(t *testing.T) {
	tech := MustNewTech(100, 0.65)
	if !tech.HasLowVdd() {
		t.Fatalf("two-supply tech expected")
	}
	if !units.ApproxEqual(tech.Vdd(1), 0.65*tech.VddH(), 1e-9, 0) {
		t.Fatalf("Vdd,l = %g, want 0.65·Vdd,h", tech.Vdd(1))
	}
	if len(tech.VthLevels) != 2 || tech.VthLevels[1]-tech.VthLevels[0] != VthOffsetHigh {
		t.Fatalf("Vth levels = %v, want nominal and +100 mV", tech.VthLevels)
	}
	single := MustNewTech(100, 0)
	if single.HasLowVdd() {
		t.Fatalf("lowRatio 0 must give a single supply")
	}
	if _, err := NewTech(100, 1.5); err == nil {
		t.Fatalf("low ratio ≥ 1 must error")
	}
	if _, err := NewTech(65, 0.65); err == nil {
		t.Fatalf("unknown node must error")
	}
}

func TestTechCellCharacteristics(t *testing.T) {
	tech := MustNewTech(100, 0.65)
	// Pin capacitance and leakage scale linearly with size.
	c1 := tech.PinCapacitance(gate.Inv, 1, 0, 0, 1)
	c2 := tech.PinCapacitance(gate.Inv, 1, 0, 0, 2)
	if !units.ApproxEqual(c2, 2*c1, 1e-9, 0) {
		t.Fatalf("pin capacitance must scale with size")
	}
	l1 := tech.CellLeakage(gate.Inv, 1, 0, 0, 1)
	l2 := tech.CellLeakage(gate.Inv, 1, 0, 0, 2)
	if !units.ApproxEqual(l2, 2*l1, 1e-9, 0) {
		t.Fatalf("leakage must scale with size")
	}
	// Bigger cells drive a fixed load faster.
	load := 20e-15
	if tech.CellDelay(gate.Inv, 1, 0, 0, 2, load) >= tech.CellDelay(gate.Inv, 1, 0, 0, 1, load) {
		t.Fatalf("upsizing must reduce delay into a fixed load")
	}
	// The low supply is slower.
	if tech.CellDelay(gate.Inv, 1, 1, 0, 1, load) <= tech.CellDelay(gate.Inv, 1, 0, 0, 1, load) {
		t.Fatalf("Vdd,l must be slower than Vdd,h")
	}
	// The high threshold leaks less and is slower.
	if tech.CellLeakage(gate.Inv, 1, 0, 1, 1) >= tech.CellLeakage(gate.Inv, 1, 0, 0, 1) {
		t.Fatalf("high Vth must leak less")
	}
	if tech.CellDelay(gate.Inv, 1, 0, 1, 1, load) <= tech.CellDelay(gate.Inv, 1, 0, 0, 1, load) {
		t.Fatalf("high Vth must be slower")
	}
	// Energy at the low supply is quadratically cheaper.
	eh := tech.CellEnergy(gate.Inv, 1, 0, 0, 1, load)
	el := tech.CellEnergy(gate.Inv, 1, 1, 0, 1, load)
	if !units.ApproxEqual(el/eh, 0.65*0.65, 1e-6, 0) {
		t.Fatalf("energy ratio = %g, want 0.65²", el/eh)
	}
	// Level converter pricing is positive.
	if tech.LevelConverterDelayS <= 0 || tech.LevelConverterEnergyJ <= 0 {
		t.Fatalf("level converter must have a cost")
	}
}

// The lazily filled flavor table must hand back the same characteristics
// whatever order flavors are first asked for in — a wider gate arriving
// later grows the table without disturbing the slots already filled — and
// must not alias a class outside the technology onto another flavor.
func TestCellFlavorTableOrderIndependent(t *testing.T) {
	type flavor struct {
		kind             gate.Kind
		inputs, vdd, vth int
	}
	var flavors []flavor
	for _, k := range []gate.Kind{gate.Inv, gate.Nand, gate.Nor} {
		for inputs := 1; inputs <= 4; inputs++ {
			if (k == gate.Inv) != (inputs == 1) {
				continue
			}
			for vdd := 0; vdd < 2; vdd++ {
				for vth := 0; vth < 2; vth++ {
					flavors = append(flavors, flavor{k, inputs, vdd, vth})
				}
			}
		}
	}
	values := func(tech *Tech, f flavor) [4]float64 {
		return [4]float64{
			tech.PinCapacitance(f.kind, f.inputs, f.vdd, f.vth, 1.5),
			tech.CellDelay(f.kind, f.inputs, f.vdd, f.vth, 1.5, 10e-15),
			tech.CellLeakage(f.kind, f.inputs, f.vdd, f.vth, 1.5),
			tech.CellEnergy(f.kind, f.inputs, f.vdd, f.vth, 1.5, 10e-15),
		}
	}
	fwd, rev := MustNewTech(100, 0.65), MustNewTech(100, 0.65)
	for i := len(flavors) - 1; i >= 0; i-- {
		values(rev, flavors[i])
	}
	for _, f := range flavors {
		if a, b := values(fwd, f), values(rev, f); a != b {
			t.Fatalf("flavor %+v: %v filled in order, %v filled in reverse", f, a, b)
		}
	}

	// Dropping the high threshold re-lays the table out; the nominal
	// flavors keep their values and the dropped class is refused.
	want := values(fwd, flavor{gate.Nand, 3, 1, 0})
	fwd.VthLevels = fwd.VthLevels[:1]
	if got := values(fwd, flavor{gate.Nand, 3, 1, 0}); got != want {
		t.Fatalf("after dropping a Vth level: %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("a Vth class outside the technology must panic")
		}
	}()
	fwd.CellDelay(gate.Nand, 3, 0, 1, 1, 10e-15)
}

func TestGateDelayIncludesLCPenalty(t *testing.T) {
	c := genTest(t, 100, 4)
	g := &c.Gates[50]
	before := c.GateDelay(g)
	g.NeedsLC = true
	after := c.GateDelay(g)
	if after <= before+c.Tech.LevelConverterDelayS*0.99 {
		t.Fatalf("LC delay penalty missing: %g vs %g", after, before)
	}
}
