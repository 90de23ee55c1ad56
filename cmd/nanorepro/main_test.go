package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReportMatchesGoldens: the command's stdout is the committed golden
// report in every format (the goldens are pinned against the compute and
// encode layers in internal/repro; this pins the command's assembly of
// them).
func TestReportMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full report compute is slow; run without -short")
	}
	for format, name := range map[string]string{"text": "report.golden", "json": "report.golden.json", "csv": "report.golden.csv"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "repro", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-format", format, "-jobs", "2"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-format %s exited %d: %s", format, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("-format %s stdout differs from %s (%d vs %d bytes)", format, name, stdout.Len(), len(want))
		}
	}
}

// TestSweepCSVPerVariant: under a 3-step sweep, -csv writes each variant's
// figure CSVs into its own DIR/<variant>/ subdirectory — three distinct
// files per figure, each announced once — while a run without a sweep
// keeps writing DIR/<figure>.csv.
func TestSweepCSVPerVariant(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "csvbug.json")
	doc := `{"name":"csvbug","sweep":{"param":"vdd","steps":3,"span_pct":20,"nodes":[70]}}`
	if err := os.WriteFile(scn, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", scn, "-only", "f3,f5", "-csv", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("sweep exited %d: %s", code, stderr.String())
	}
	wrote := map[string]bool{}
	for _, m := range regexp.MustCompile(`wrote (\S+)`).FindAllStringSubmatch(stdout.String(), -1) {
		if wrote[m[1]] {
			t.Errorf("%s announced twice", m[1])
		}
		wrote[m[1]] = true
	}
	for _, fig := range []string{"figure3.csv", "figure5.csv"} {
		for _, vdd := range []string{"0.800", "1.000", "1.200"} {
			path := filepath.Join(out, "csvbug", "vdd="+vdd, fig)
			if !wrote[path] {
				t.Errorf("%s not announced (announced: %v)", path, wrote)
			}
			if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
				t.Errorf("%s: %d bytes, %v", path, len(b), err)
			}
		}
	}
	if len(wrote) != 6 {
		t.Errorf("%d distinct wrote paths, want 6 (3 variants × 2 figures)", len(wrote))
	}

	base := filepath.Join(dir, "base")
	stdout.Reset()
	if code := run([]string{"-only", "f3", "-csv", base}, &stdout, &stderr); code != 0 {
		t.Fatalf("base run exited %d: %s", code, stderr.String())
	}
	if want := "wrote " + filepath.Join(base, "figure3.csv"); !strings.Contains(stdout.String(), want) {
		t.Errorf("base run stdout lacks %q", want)
	}
}

// TestBadInputExitsNonZero: an unknown artifact id and an unusable -csv
// path fail the run before anything computes, naming the problem on
// stderr.
func TestBadInputExitsNonZero(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-only", "t1,bogus"},
		{"-only", "f2", "-csv", filepath.Join(blocker, "sub")},
		{"-format", "xml"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, %d stdout bytes, stderr %q; want 1, none, a message", args, code, stdout.Len(), stderr.String())
		}
	}
}
