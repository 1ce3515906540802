// Package analysis is a from-scratch static-analysis framework for the
// soral solver stack, built only on the standard library (go/ast, go/parser,
// go/types with the source importer — no golang.org/x/tools dependency).
//
// The framework loads and type-checks every package of the module, runs a
// registry of project-specific analyzers over each one, deduplicates the
// diagnostics, and applies `//sorallint:ignore <check> <reason>` suppression
// directives. The analyzers enforce the numerical, determinism, and
// concurrency invariants the paper's guarantees rest on: no raw float
// equality, no unguarded float division, no order-dependent map iteration,
// context propagation through solver entry points, nil-safe *obs.Scope use,
// no dropped factorization/solve errors, and well-formed metric names that
// keep one kind each.
//
// cmd/sorallint runs the suite from the command line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check. Run inspects a single type-checked package
// through the Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name is the check identifier used in diagnostics and in
	// //sorallint:ignore directives.
	Name string

	// Doc is a one-line description of the invariant the check protects.
	Doc string

	// SkipTests excludes _test.go files from this check.
	SkipTests bool

	// Run inspects one package.
	Run func(*Pass)
}

// A Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	report func(Diagnostic)
}

// Files returns the package's syntax trees, excluding test files when the
// analyzer opts out of them.
func (p *Pass) Files() []*ast.File {
	if !p.Analyzer.SkipTests {
		return p.Pkg.Files
	}
	out := make([]*ast.File, 0, len(p.Pkg.Files))
	for _, f := range p.Pkg.Files {
		if !p.Pkg.IsTest[f] {
			out = append(out, f)
		}
	}
	return out
}

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// TypeOf returns the type of an expression (nil if untypeable).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:    p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Severity: SeverityError,
	})
}

// Severity classifies a diagnostic. Every analyzer finding is an error (the
// gate exits nonzero); SeverityWarning marks advisory findings — stale
// suppression directives — which only fail the run under -strict-suppress;
// SeverityDirective marks problems with the suppression directives
// themselves, which cannot be suppressed.
type Severity int

const (
	SeverityError Severity = iota
	SeverityWarning
	SeverityDirective
)

// A Diagnostic is one finding, positioned in the file set.
type Diagnostic struct {
	Check    string
	Pos      token.Position
	Message  string
	Severity Severity
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzers returns the full registry in deterministic (alphabetical) order.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		CtxFlow,
		DivGuard,
		ErrDrop,
		FloatCmp,
		MapOrder,
		MetricName,
		ScopeNil,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ByName resolves a comma-separable check name against the registry.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// sortDiagnostics orders diagnostics by file, line, column, check, message
// and drops exact duplicates (two analyzers, or one analyzer visiting a node
// twice, may land on the same finding).
func sortDiagnostics(ds []Diagnostic) []Diagnostic {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
