// Package render is the encode layer of the reproduction pipeline: it turns
// the typed results of the compute layer (internal/result) into consumable
// output. Three encoders share one input schema — Text reproduces the
// classic terminal report byte for byte, JSON emits the results as data,
// and CSV streams tables, figures, and claim findings as comma-separated
// blocks. internal/report supplies the low-level table/figure writers; it
// is an implementation detail of this package, not an artifact API.
package render

import (
	"errors"
	"fmt"
	"io"

	"nanometer/internal/report"
	"nanometer/internal/result"
)

// Formats are the report encodings Report accepts, in listing order.
var Formats = []string{"text", "json", "csv"}

// CheckFormat rejects a format name Report does not know.
func CheckFormat(format string) error {
	for _, f := range Formats {
		if f == format {
			return nil
		}
	}
	return fmt.Errorf("unknown format %q (want text, json, or csv)", format)
}

// Report encodes a run's results in one of Formats; nil results (artifacts
// that failed to compute) are skipped. json wraps the results in one
// two-space-indented result.Report document. text (encoded with the given
// settings) and csv concatenate the per-artifact encodes in order; an
// artifact that fails to encode keeps the text it wrote, the artifacts
// after it are still encoded, and the failures come back joined, each
// prefixed with its artifact ID.
func Report(w io.Writer, format string, text Text, results []*result.Result) error {
	var enc interface {
		Encode(io.Writer, *result.Result) error
	}
	switch format {
	case "json":
		rep := &result.Report{}
		for _, res := range results {
			if res != nil {
				rep.Artifacts = append(rep.Artifacts, res)
			}
		}
		return JSON{Indent: "  "}.EncodeReport(w, rep)
	case "csv":
		enc = CSV{}
	case "text":
		enc = text
	default:
		return CheckFormat(format)
	}
	var errs []error
	for _, res := range results {
		if res == nil {
			continue
		}
		if err := enc.Encode(w, res); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", res.ID, err))
		}
	}
	return errors.Join(errs...)
}

// toReportTable adapts a typed table to the terminal table writer.
func toReportTable(t *result.Table) *report.Table {
	return &report.Table{Title: t.Title, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes}
}

// toReportFigure adapts a typed figure to the plot/CSV writers.
func toReportFigure(f *result.Figure) *report.Figure {
	rf := &report.Figure{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, LogX: f.LogX, LogY: f.LogY}
	for i := range f.Series {
		s := &f.Series[i]
		rf.Series = append(rf.Series, &report.Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	return rf
}
