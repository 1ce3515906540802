// Command sorallint runs the soral static-analysis suite: seven
// per-package analyzers enforcing the numerical, determinism, and
// concurrency invariants of the solver stack (see internal/analysis and
// DESIGN.md §7). Contracts that need a whole-program view (allocation-free
// hot paths, lock discipline, goroutine exit, determinism) are pinned by
// tests and go vet instead (DESIGN.md §12).
//
// Usage:
//
//	sorallint ./...                 # analyze the whole module
//	sorallint internal/lp           # report findings for one package dir
//	sorallint -checks floatcmp,divguard ./...
//	sorallint -list                 # print the analyzer registry
//
// Findings can be suppressed with a justified directive on the offending
// line or the line above:
//
//	//sorallint:ignore floatcmp comparing against the exact sentinel stored above
//
// A directive that suppresses nothing is reported as a warning and fails
// the run like a finding, so suppressions cannot outlive the findings they
// justified. Under -checks unused directives are not reported, because a
// suppression for an analyzer that did not run always looks unused.
//
// Exit status: 0 clean, 1 findings or stale directives, 2 usage or
// load/type-check errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"soral/internal/analysis"
)

func main() {
	var (
		checksFlag = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		listFlag   = flag.Bool("list", false, "list registered analyzers and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	var checks []string
	if *checksFlag != "" {
		for _, c := range strings.Split(*checksFlag, ",") {
			if c = strings.TrimSpace(c); c != "" {
				checks = append(checks, c)
			}
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Run(analysis.RunConfig{Dir: cwd, Checks: checks})
	if err != nil {
		fatal(err)
	}

	keep, err := packageFilter(cwd, flag.Args())
	if err != nil {
		fatal(err)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		if keep(pkg.Path) {
			diags = append(diags, pkg.Diagnostics...)
		}
	}

	errors, warnings := 0, 0
	for _, d := range diags {
		if d.Severity == analysis.SeverityWarning {
			warnings++
		} else {
			errors++
		}
	}

	for _, d := range diags {
		line := relativize(cwd, d)
		if d.Severity == analysis.SeverityWarning {
			line += " (warning)"
		}
		fmt.Println(line)
	}
	if errors > 0 || warnings > 0 {
		fmt.Fprintf(os.Stderr, "sorallint: %d finding(s), %d warning(s)\n", errors, warnings)
		os.Exit(1)
	}
}

// packageFilter turns the positional arguments into an import-path
// predicate. No arguments, ".", or "./..." selects every package; a
// directory argument selects the packages under it. Wildcard suffix /...
// is honored on directory arguments too.
func packageFilter(cwd string, args []string) (func(string) bool, error) {
	if len(args) == 0 {
		return func(string) bool { return true }, nil
	}
	root, module, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	var prefixes []string
	for _, arg := range args {
		if arg == "." || arg == "./..." || arg == "..." || arg == "all" {
			return func(string) bool { return true }, nil
		}
		recursive := false
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			arg, recursive = rest, true
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("sorallint: %s is outside the module at %s", arg, root)
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		prefixes = append(prefixes, path)
		_ = recursive // a bare dir and dir/... both select the subtree
	}
	return func(pkg string) bool {
		for _, p := range prefixes {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return true
			}
		}
		return false
	}, nil
}

// relativize shortens diagnostic filenames relative to the working
// directory for terminal-friendly, clickable output.
func relativize(cwd string, d analysis.Diagnostic) string {
	if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sorallint:", err)
	os.Exit(2)
}
