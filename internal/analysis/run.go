package analysis

import (
	"fmt"
	"time"
)

// RunConfig selects what Run analyzes.
type RunConfig struct {
	// Dir is any directory inside the module; Run resolves the module root
	// and analyzes every package under it.
	Dir string

	// Checks restricts the analyzers by name; empty means the full registry.
	Checks []string
}

// PackageResult carries the outcome and cost of analyzing one package.
type PackageResult struct {
	Path        string
	Files       int
	Duration    time.Duration // analyzer wall time for this package (excludes load)
	Diagnostics []Diagnostic
}

// Result is the outcome of one Run.
type Result struct {
	Packages     []PackageResult
	LoadDuration time.Duration // parse + type-check time for the whole module
	// Analyzers records per-analyzer wall time summed over all packages.
	Analyzers   map[string]time.Duration
	Diagnostics []Diagnostic // all surviving diagnostics, merged and sorted
}

// Run loads the module containing cfg.Dir and analyzes every package.
//
// Unused suppression directives are always reported (as warnings) when the
// full check set runs; with a restricted -checks list they are skipped,
// because a suppression for an analyzer that did not run always looks
// unused.
func Run(cfg RunConfig) (*Result, error) {
	root, module, err := FindModuleRoot(cfg.Dir)
	if err != nil {
		return nil, err
	}
	loadStart := time.Now()
	pr, err := Load(LoadConfig{Dir: root, Module: module})
	if err != nil {
		return nil, err
	}
	checks, err := selectChecks(cfg.Checks)
	if err != nil {
		return nil, err
	}
	res := &Result{
		LoadDuration: time.Since(loadStart),
		Analyzers:    make(map[string]time.Duration, len(checks)),
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	fullSet := len(cfg.Checks) == 0
	for _, pkg := range pr.Packages {
		start := time.Now()
		diags := analyzePackageTimed(pr, pkg, checks, res.Analyzers)
		dirs, problems := ParseDirectives(pr.Fset, pkg, known)
		diags = Suppress(diags, dirs)
		diags = append(diags, problems...)
		if fullSet {
			diags = append(diags, UnusedDirectives(dirs)...)
		}
		diags = sortDiagnostics(diags)
		res.Packages = append(res.Packages, PackageResult{
			Path:        pkg.Path,
			Files:       len(pkg.Files),
			Duration:    time.Since(start),
			Diagnostics: diags,
		})
		res.Diagnostics = append(res.Diagnostics, diags...)
	}
	// Per-package slices are already sorted; the merged view must be too,
	// independent of package visit order.
	res.Diagnostics = sortDiagnostics(res.Diagnostics)
	return res, nil
}

// selectChecks resolves names against the registry (all when empty).
func selectChecks(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return Analyzers(), nil
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := ByName(n)
		if !ok {
			return nil, fmt.Errorf("analysis: unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// AnalyzePackage runs the given analyzers over one package and returns the
// raw (pre-suppression) diagnostics, sorted and deduplicated.
func AnalyzePackage(pr *Program, pkg *Package, checks []*Analyzer) []Diagnostic {
	return analyzePackageTimed(pr, pkg, checks, nil)
}

func analyzePackageTimed(pr *Program, pkg *Package, checks []*Analyzer, timings map[string]time.Duration) []Diagnostic {
	var diags []Diagnostic
	for _, a := range checks {
		pass := &Pass{
			Analyzer: a,
			Fset:     pr.Fset,
			Pkg:      pkg,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		start := time.Now()
		a.Run(pass)
		if timings != nil {
			timings[a.Name] += time.Since(start)
		}
	}
	return sortDiagnostics(diags)
}
