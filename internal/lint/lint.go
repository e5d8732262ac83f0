// Package lint is a small, dependency-free static-analysis framework in
// the spirit of golang.org/x/tools/go/analysis, specialized to this
// repository's invariants. Each Analyzer inspects one type-checked
// package and reports Diagnostics. The suite has one driver:
// checks.TestRepoClean runs every analyzer over every module package
// inside `go test ./...`, and the analysistest-style harness in
// linttest.go runs each analyzer against annotated sources under
// internal/lint/checks/testdata.
//
// Intentional violations are allowlisted in place with an annotation
// comment on the offending line or the line directly above:
//
//	//repolint:allow <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory — an allow without a justification is itself
// a diagnostic — so every exemption documents why the invariant does
// not apply (Report.WallNS wall-clock timing, a provably bounded loop).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single package
// through its Pass and reports violations; it must not retain the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Report records a diagnostic, stamping it with the running analyzer.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// AllowPrefix introduces an allowlist annotation comment.
const AllowPrefix = "//repolint:allow "

// allowSet maps file:line keys to the analyzer names allowed there.
type allowSet map[string]map[string]bool

func allowKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// collectAllows scans a package's comments for allow annotations. An
// annotation suppresses matching diagnostics on its own line (trailing
// comment) and on the line below (standalone comment above a statement).
// Malformed annotations — no analyzer list or no reason — are reported
// as diagnostics themselves so a typo cannot silently disable a check.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	allows := allowSet{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSpace(AllowPrefix)) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, strings.TrimSpace(AllowPrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "repolint",
						Message:  "malformed allow annotation: want //repolint:allow <analyzer>[,<analyzer>] <reason>",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						key := fmt.Sprintf("%s:%d", pos.Filename, line)
						if allows[key] == nil {
							allows[key] = map[string]bool{}
						}
						allows[key][name] = true
					}
				}
			}
		}
	}
	return allows, bad
}

// RunPackage runs the analyzers over one loaded package and returns the
// surviving diagnostics (allowlisted ones removed), sorted by position.
// Diagnostics positioned inside _test.go files are dropped: the
// invariants govern shipped code, and tests legitimately use wall
// clocks and raw decodes.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	allows, bad := collectAllows(pkg.Fset, pkg.Files)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		if allows[allowKey(pos)][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
