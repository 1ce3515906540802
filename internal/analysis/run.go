package analysis

import "fmt"

// RunConfig selects what Run analyzes.
type RunConfig struct {
	// Dir is any directory inside the module; Run resolves the module root
	// and analyzes every package under it.
	Dir string

	// Checks restricts the analyzers by name; empty means the full registry.
	Checks []string
}

// PackageResult carries the outcome of analyzing one package.
type PackageResult struct {
	Path        string
	Diagnostics []Diagnostic // surviving diagnostics, sorted
}

// Run loads the module containing cfg.Dir and analyzes every package.
//
// Unused suppression directives are always reported (as warnings) when the
// full check set runs; with a restricted -checks list they are skipped,
// because a suppression for an analyzer that did not run always looks
// unused.
func Run(cfg RunConfig) ([]PackageResult, error) {
	root, module, err := FindModuleRoot(cfg.Dir)
	if err != nil {
		return nil, err
	}
	pr, err := Load(LoadConfig{Dir: root, Module: module})
	if err != nil {
		return nil, err
	}
	checks, err := selectChecks(cfg.Checks)
	if err != nil {
		return nil, err
	}
	var res []PackageResult
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	fullSet := len(cfg.Checks) == 0
	for _, pkg := range pr.Packages {
		diags := AnalyzePackage(pr, pkg, checks)
		dirs, problems := ParseDirectives(pr.Fset, pkg, known)
		diags = Suppress(diags, dirs)
		diags = append(diags, problems...)
		if fullSet {
			diags = append(diags, UnusedDirectives(dirs)...)
		}
		res = append(res, PackageResult{Path: pkg.Path, Diagnostics: sortDiagnostics(diags)})
	}
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
	var diags []Diagnostic
	for _, a := range checks {
		pass := &Pass{
			Analyzer: a,
			Fset:     pr.Fset,
			Pkg:      pkg,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		a.Run(pass)
	}
	return sortDiagnostics(diags)
}
