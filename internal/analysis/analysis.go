// Package analysis is the repository's static-analysis framework: a
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic) driven by the offline loader in
// internal/analysis/load. The concrete analyzers under
// internal/analysis/* machine-check invariants that otherwise live only
// in DESIGN.md prose — lock ordering, wire-kind exhaustiveness,
// registry consistency, context-guarded blocking, determinism of the
// partitioning paths, sentinel-error comparison — and cmd/dgsvet runs
// them as part of the build gate. docs/ANALYSIS.md documents each
// analyzer and the //lint:allow escape hatch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"dgs/internal/analysis/load"
)

// An Analyzer checks one invariant. Exactly one of Run (per-package)
// and RunModule (whole-module, for cross-package registries) is set.
type Analyzer struct {
	// Name is the analyzer's identifier: diagnostics are prefixed with
	// it and //lint:allow annotations name it.
	Name string
	// Doc is the one-paragraph invariant description (docs lint checks
	// docs/ANALYSIS.md has a matching section).
	Doc string
	// Run checks one package.
	Run func(*Pass) error
	// RunModule checks the whole module at once.
	RunModule func(*ModulePass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *load.Package
	Module   *load.Module
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModulePass carries the whole module through a module analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Module   *load.Module
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a resolved diagnostic: position, owning analyzer, message.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// allowRe matches the suppression annotation: //lint:allow name1,name2
// optionally followed by a free-form reason. The annotation on the
// diagnostic's line — or the line directly above it — suppresses the
// named analyzers' findings there.
var allowRe = regexp.MustCompile(`//\s*lint:allow\s+([A-Za-z0-9_,-]+)`)

// allowIndex records, per file line, which analyzers are allowed.
type allowIndex map[string]map[int]map[string]bool

func buildAllowIndex(fset *token.FileSet, pkgs []*load.Package) allowIndex {
	idx := make(allowIndex)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					byLine := idx[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						idx[pos.Filename] = byLine
					}
					names := byLine[pos.Line]
					if names == nil {
						names = make(map[string]bool)
						byLine[pos.Line] = names
					}
					for _, n := range strings.Split(m[1], ",") {
						names[strings.TrimSpace(n)] = true
					}
				}
			}
		}
	}
	return idx
}

func (idx allowIndex) allows(analyzer string, pos token.Position) bool {
	byLine := idx[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if names := byLine[line]; names != nil && (names[analyzer] || names["all"]) {
			return true
		}
	}
	return false
}

// Run applies the analyzers to the module and returns the surviving
// findings sorted by position. keep filters which packages the
// per-package analyzers visit (nil visits all); module analyzers always
// see the full module so cross-package registries stay complete, but
// their findings are filtered to kept packages' files.
func Run(mod *load.Module, analyzers []*Analyzer, keep func(pkg *load.Package) bool) ([]Finding, error) {
	if keep == nil {
		keep = func(*load.Package) bool { return true }
	}
	allow := buildAllowIndex(mod.Fset, mod.Pkgs)
	keptFiles := make(map[string]bool)
	for _, pkg := range mod.Pkgs {
		if keep(pkg) {
			for _, f := range pkg.Files {
				keptFiles[mod.Fset.File(f.Pos()).Name()] = true
			}
		}
	}

	var findings []Finding
	record := func(a *Analyzer, d Diagnostic) {
		pos := mod.Fset.Position(d.Pos)
		if !keptFiles[pos.Filename] || allow.allows(a.Name, pos) {
			return
		}
		findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
	}
	for _, a := range analyzers {
		switch {
		case a.RunModule != nil:
			mp := &ModulePass{Analyzer: a, Fset: mod.Fset, Module: mod}
			mp.report = func(d Diagnostic) { record(a, d) }
			if err := a.RunModule(mp); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range mod.Pkgs {
				if !keep(pkg) {
					continue
				}
				p := &Pass{Analyzer: a, Fset: mod.Fset, Pkg: pkg, Module: mod}
				p.report = func(d Diagnostic) { record(a, d) }
				if err := a.Run(p); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		default:
			return nil, fmt.Errorf("%s: analyzer has no Run function", a.Name)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// --- shared type/AST helpers for the analyzers ---

// CalleeIdent returns the identifier a call expression invokes — the
// rightmost name of f() / x.f() — or nil.
func CalleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	}
	return nil
}
