// Package analyzers is the repo's custom lint layer: four project-specific
// static analyzers that turn invariants the test suite enforces dynamically
// (golden-byte determinism, never-dropped solver errors, cache-key
// coverage, pooled-workspace discipline) into compile-time gates. The
// analyzers run from cmd/nanolint (wired into `make lint`, `make verify`,
// and CI) and are modeled on golang.org/x/tools/go/analysis — Analyzer,
// Pass, Reportf — but implemented on the standard library alone
// (go/ast + go/types + export data from `go list -export`), because this
// module deliberately has no external dependencies.
//
// Suppression: a finding can be silenced with a `//lint:allow <name>
// <reason>` comment on the flagged line or the line directly above it. The
// reason is mandatory by policy (reviewed, not machine-enforced): every
// allow marks a place where a human vouches that the invariant holds for a
// reason the analyzer cannot see.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer is one named check. Scope, when non-nil, restricts the packages
// the driver applies the check to (by exact import path); nil means every
// package.
type Analyzer struct {
	Name  string
	Doc   string
	Scope []string
	Run   func(*Pass) error
}

// All returns the full nanolint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrange, Solvecheck, Cachekey, Lockguard,
		Ctxflow, Goexit, Strictjson, Metriclabel,
	}
}

// AppliesTo reports whether the analyzer should run on the package with
// the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if a.Scope == nil {
		return true
	}
	for _, p := range a.Scope {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// Diagnostic is one finding: a position and a message. The analyzer name
// travels alongside so drivers can print it (the CI failure message
// contract).
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags   []Diagnostic
	allowed map[string]map[int][]string // file → line → allowed analyzer names
}

// Reportf records a finding at pos unless a `//lint:allow` comment for
// this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_,]+)`)

// parseAllowDirective parses a `//lint:allow name1,name2 reason` comment
// and returns the suppressed analyzer names. ok is false when the comment
// is not an allow directive (or names nothing). The function is total over
// arbitrary comment bytes — FuzzAllowDirective pins that, plus the
// round-trip property that re-rendering the names parses back unchanged.
func parseAllowDirective(text string) (names []string, ok bool) {
	m := allowRe.FindStringSubmatch(text)
	if m == nil {
		return nil, false
	}
	names = splitNames(m[1])
	return names, len(names) > 0
}

// guardRe matches a whole-line `// guarded by <field>` field annotation
// (optional trailing period). The guard must be a plain identifier naming a
// sibling mutex field — lockguard validates the sibling exists.
var guardRe = regexp.MustCompile(`^//\s*guarded by\s+([A-Za-z_][A-Za-z0-9_]*)\s*\.?\s*$`)

// parseGuardDirective parses a `// guarded by mu` field comment, returning
// the guard field name. Like parseAllowDirective it must never panic on
// hostile bytes and accepted forms must round-trip (FuzzAllowDirective).
func parseGuardDirective(text string) (guard string, ok bool) {
	m := guardRe.FindStringSubmatch(text)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// buildAllowIndex scans every comment for lint:allow markers once per pass.
func (p *Pass) buildAllowIndex() {
	p.allowed = map[string]map[int][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Slash)
				byLine := p.allowed[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					p.allowed[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], names...)
			}
		}
	}
}

func splitNames(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// suppressed reports whether an allow comment for this analyzer sits on
// the diagnostic's line or the line directly above it.
func (p *Pass) suppressed(pos token.Position) bool {
	byLine := p.allowed[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == p.Analyzer.Name || name == "all" {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies every analyzer whose scope covers the package and
// returns the findings sorted by position.
func RunAnalyzers(pkg *Package, as []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range as {
		if !a.AppliesTo(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		pass.buildAllowIndex()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		diags = append(diags, pass.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
