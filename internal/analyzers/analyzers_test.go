package analyzers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"nanometer/internal/analyzers"
	"nanometer/internal/analyzers/atest"
)

// Each fixture plants at least one violation per analyzer, so these tests
// fail in both directions: a gutted analyzer reports nothing where the
// fixture wants a diagnostic, and an over-eager one reports on the clean
// (idiomatic or annotated) shapes.

func TestDetrangeFixture(t *testing.T) {
	// The fixture is checked under an in-scope import path; detrange is
	// scoped to output-producing packages.
	atest.Run(t, analyzers.Detrange, "testdata/detrange", "nanometer/internal/render")
}

func TestSolvecheckFixture(t *testing.T) {
	atest.Run(t, analyzers.Solvecheck, "testdata/solvecheck", "nanometer/internal/fixture")
}

func TestCachekeyFixture(t *testing.T) {
	atest.Run(t, analyzers.Cachekey, "testdata/cachekey", "nanometer/internal/fixture")
}

func TestLockguardFixture(t *testing.T) {
	atest.Run(t, analyzers.Lockguard, "testdata/lockguard", "nanometer/internal/fixture")
}

func TestCtxflowFixture(t *testing.T) {
	// Checked under an in-scope import path; ctxflow is scoped to the
	// serving/jobs-era packages.
	atest.Run(t, analyzers.Ctxflow, "testdata/ctxflow", "nanometer/internal/serve")
}

func TestGoexitFixture(t *testing.T) {
	atest.Run(t, analyzers.Goexit, "testdata/goexit", "nanometer/internal/fixture")
}

func TestStrictjsonFixture(t *testing.T) {
	// Checked under an in-scope import path; strictjson is scoped to the
	// API-boundary packages.
	atest.Run(t, analyzers.Strictjson, "testdata/strictjson", "nanometer/internal/serve")
}

func TestMetriclabelFixture(t *testing.T) {
	atest.Run(t, analyzers.Metriclabel, "testdata/metriclabel", "nanometer/internal/fixture")
}

// TestAnalyzerScopes pins the scoped-analyzer contract the nanolint driver
// relies on: each scoped analyzer applies exactly to its listed packages,
// the unscoped ones everywhere.
func TestAnalyzerScopes(t *testing.T) {
	scoped := map[string]bool{}
	for _, a := range analyzers.All() {
		if len(a.Scope) == 0 {
			continue
		}
		scoped[a.Name] = true
		for _, p := range a.Scope {
			if !a.AppliesTo(p) {
				t.Errorf("%s should apply to %s", a.Name, p)
			}
		}
		if a.AppliesTo("nanometer/internal/mathx") {
			t.Errorf("%s should not apply to nanometer/internal/mathx (solver package, outside its boundary scope)", a.Name)
		}
	}
	for _, want := range []string{"detrange", "ctxflow", "strictjson"} {
		if !scoped[want] {
			t.Errorf("%s should be a scoped analyzer", want)
		}
	}
	for _, a := range analyzers.All() {
		if scoped[a.Name] {
			continue
		}
		if !a.AppliesTo("nanometer/internal/mathx") {
			t.Errorf("%s should apply to every package", a.Name)
		}
	}
}

// TestViolationClassesFailLint is the meta-test for the concurrency-era
// analyzers: for each of the five violation classes, a minimal source
// file reintroducing it is run through the FULL suite — the same
// analyzer set `make lint` executes — and must produce at least one
// finding from the expected analyzer. This pins the wiring, not just the
// analyzers: an analyzer dropped from All() fails here even though its
// own fixture test still passes.
func TestViolationClassesFailLint(t *testing.T) {
	cases := []struct {
		analyzer string
		pkgPath  string // in-scope path for the scoped analyzers
		src      string
	}{
		{"lockguard", "nanometer/internal/fixture", `package fixture
import "sync"
type box struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (b *box) peek() int { return b.n }
`},
		{"ctxflow", "nanometer/internal/serve", `package fixture
import "context"
func root() context.Context { return context.Background() }
`},
		{"goexit", "nanometer/internal/fixture", `package fixture
func spin() {
	go func() {
		for {
		}
	}()
}
`},
		{"strictjson", "nanometer/internal/serve", `package fixture
import "encoding/json"
func lax(data []byte) (v map[string]int, err error) {
	err = json.Unmarshal(data, &v)
	return v, err
}
`},
		{"metriclabel", "nanometer/internal/fixture", `package fixture
import "nanometer/internal/obs"
func leak(vec *obs.CounterVec, name string) { vec.With(name).Inc() }
`},
	}
	exports, err := analyzers.LoadExports(".",
		"./...", "sync", "context", "encoding/json")
	if err != nil {
		t.Fatalf("loading export data: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			fset := token.NewFileSet()
			af, err := parser.ParseFile(fset, tc.analyzer+".go", tc.src, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing violation source: %v", err)
			}
			imp := analyzers.NewExportImporter(fset, exports)
			pkg, err := analyzers.CheckFiles(fset, imp, tc.pkgPath, []*ast.File{af})
			if err != nil {
				t.Fatalf("typechecking violation source: %v", err)
			}
			diags, err := analyzers.RunAnalyzers(pkg, analyzers.All())
			if err != nil {
				t.Fatalf("running suite: %v", err)
			}
			found := false
			for _, d := range diags {
				if d.Analyzer == tc.analyzer {
					found = true
				}
			}
			if !found {
				t.Errorf("reintroducing the %s violation class produced no %s finding (got %v)",
					tc.analyzer, tc.analyzer, diags)
			}
		})
	}
}

// TestRepoIsClean runs the full suite over the whole module — the same
// gate `make lint` enforces — so a violation introduced anywhere fails
// `go test` too, not just the lint step.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint run skipped in -short mode")
	}
	pkgs, err := analyzers.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	for _, pkg := range pkgs {
		diags, err := analyzers.RunAnalyzers(pkg, analyzers.All())
		if err != nil {
			t.Fatalf("running suite on %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
