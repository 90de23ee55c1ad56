// Package experiments regenerates every table, figure, and quantified
// in-text claim of the paper from the model stack. Each experiment returns
// typed rows/series (asserted on by the test suite and printed by
// cmd/nanorepro), along with the paper's reported values where it states
// them, so paper-vs-measured comparisons are mechanical.
package experiments

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/report"
)

// Table1Row is one line of the reproduced Table 1.
type Table1Row struct {
	Ref          string
	NodeLabel    string
	ToxAngstrom  float64
	Electrical   bool
	Vdd          float64
	IonUAPerUM   float64
	IoffNAPerUM  float64
	IsITRS       bool
	MeetsSub1V   bool
	PowerPenalty float64 // dynamic-power penalty vs the ITRS supply of the nearest node
}

// Table1 reproduces Table 1: recent published NMOS devices against ITRS
// projections, with the paper's take-away flags (no published sub-1 V device
// meets the Ion target; 70 nm-class devices at 1.2 V pay +78 % dynamic
// power vs the 0.9 V roadmap supply). Published devices are compared to
// the laboratory's supplies rather than the base roadmap's.
func Table1(lab *device.Lab) []Table1Row {
	var rows []Table1Row
	for _, d := range itrs.Table1Published() {
		label := fmt.Sprintf("%d", d.ITRSNodeNM)
		nearest := d.ITRSNodeNM
		if d.ITRSNodeNM == 0 {
			label = fmt.Sprintf("%d-%d", d.NodeRangeNM[0], d.NodeRangeNM[1])
			nearest = d.NodeRangeNM[1]
		}
		row := Table1Row{
			Ref:         d.Ref,
			NodeLabel:   label,
			ToxAngstrom: d.ToxAngstrom,
			Electrical:  d.Electrical,
			Vdd:         d.Vdd,
			IonUAPerUM:  d.IonUAPerUM,
			IoffNAPerUM: d.IoffNAPerUM,
			MeetsSub1V:  d.MeetsITRSSub1V(),
		}
		if node, err := lab.Node(nearest); err == nil && node.Vdd < d.Vdd {
			row.PowerPenalty = d.DynamicPowerPenalty(node.Vdd)
		}
		rows = append(rows, row)
	}
	for _, r := range itrs.Table1ITRS() {
		rows = append(rows, Table1Row{
			Ref:         "ITRS",
			NodeLabel:   fmt.Sprintf("%d", r.NodeNM),
			ToxAngstrom: (r.ToxAngstromLo + r.ToxAngstromHi) / 2,
			Vdd:         r.Vdd,
			IonUAPerUM:  r.IonUAPerUM,
			IoffNAPerUM: r.IoffNAPerUM,
			IsITRS:      true,
		})
	}
	return rows
}

// Table1Report renders Table 1.
func Table1Report(lab *device.Lab) *report.Table {
	t := &report.Table{
		Title:   "Table 1. Recent NMOS device results, compared with ITRS projections",
		Headers: []string{"Ref", "node (nm)", "Tox (Å)", "Vdd (V)", "Ion (µA/µm)", "Ioff (nA/µm)", "sub-1V+Ion?", "Pdyn penalty"},
	}
	for _, r := range Table1(lab) {
		tox := fmt.Sprintf("%.0f", r.ToxAngstrom)
		if r.Electrical {
			tox += " (elec)"
		}
		pen := "-"
		if r.PowerPenalty > 0 {
			pen = fmt.Sprintf("+%.0f%%", r.PowerPenalty*100)
		}
		meets := "no"
		if r.MeetsSub1V {
			meets = "YES"
		}
		if r.IsITRS {
			meets = "-"
		}
		t.AddRow(r.Ref, r.NodeLabel, tox,
			fmt.Sprintf("%.2f", r.Vdd),
			fmt.Sprintf("%.0f", r.IonUAPerUM),
			fmt.Sprintf("%.0f", r.IoffNAPerUM),
			meets, pen)
	}
	t.Notes = append(t.Notes,
		"paper take-away: no published sub-1 V technology reaches the 750 µA/µm ITRS drive target",
		"running the 70 nm-class devices at their reported 1.2 V instead of 0.9 V costs +78 % dynamic power")
	return t
}
