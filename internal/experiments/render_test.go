package experiments

import (
	"encoding/csv"
	"strings"
	"testing"

	"nanometer/internal/device"
)

// The rendering paths cmd/nanorepro relies on: tables carry the paper
// comparison columns, figures write well-formed CSV.

func TestTable1ReportRenders(t *testing.T) {
	out := Table1Report(device.BaseLab()).String()
	for _, want := range []string{"[24]", "[29]", "ITRS", "Ioff (nA/µm)", "+78%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 report missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ReportRenders(t *testing.T) {
	tab, err := Table2Report(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"Vth req", "paper", "Ioff MG", "ITRS Ioff", "152×"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 report missing %q:\n%s", want, out)
		}
	}
	// Every node row present, including the 0.7 V variant.
	for _, want := range []string{"180", "130", "100", "70", "50", "35", "0.7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 report missing node marker %q", want)
		}
	}
}

func TestFigureCSVWellFormed(t *testing.T) {
	fig, err := Figure1(device.BaseLab(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := fig.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	// The output must parse as CSV (series names contain commas and rely
	// on quoting) in the aligned wide format: header + 25 activity points,
	// 4 columns each.
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(records) != 26 {
		t.Fatalf("Figure 1 CSV has %d records, want 26 (header + 25 points)", len(records))
	}
	for i, rec := range records {
		if len(rec) != 4 {
			t.Fatalf("record %d has %d fields, want 4", i, len(rec))
		}
	}
}

func TestFigure5FigureSeries(t *testing.T) {
	rows, err := Figure5(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	fig := Figure5Figure(rows)
	if len(fig.Series) != 3 {
		t.Fatalf("Figure 5 wants 3 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 6 {
			t.Fatalf("series %q has %d points, want one per node", s.Name, len(s.X))
		}
	}
	// The ASCII renderer must handle the log-axis figure.
	var b strings.Builder
	fig.RenderASCII(&b, 60, 14)
	if !strings.Contains(b.String(), "Figure 5") {
		t.Fatalf("ASCII render failed:\n%s", b.String())
	}
}
