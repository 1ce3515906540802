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
//	sorallint -timing ./...         # per-package and per-analyzer wall time
//	sorallint -json ./...           # machine-readable findings + timings
//	sorallint -strict-suppress ./... # stale suppressions fail
//
// Findings can be suppressed with a justified directive on the offending
// line or the line above:
//
//	//sorallint:ignore floatcmp comparing against the exact sentinel stored above
//
// Directives that suppress nothing are always reported as warnings;
// -strict-suppress turns them into failures.
//
// Exit status: 0 clean, 1 findings (or warnings under -strict-suppress),
// 2 usage or load/type-check errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"soral/internal/analysis"
)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	Check    string `json:"check"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

// jsonReport is the full -json payload.
type jsonReport struct {
	Findings   []jsonFinding    `json:"findings"`
	Errors     int              `json:"errors"`
	Warnings   int              `json:"warnings"`
	LoadNs     int64            `json:"load_ns"`
	AnalyzerNs map[string]int64 `json:"analyzer_ns"`
}

func main() {
	var (
		checksFlag = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		listFlag   = flag.Bool("list", false, "list registered analyzers and exit")
		timingFlag = flag.Bool("timing", false, "print per-package and per-analyzer wall time to stderr")
		jsonFlag   = flag.Bool("json", false, "emit findings and timings as JSON on stdout")
		strictFlag = flag.Bool("strict-suppress", false, "treat stale-suppression warnings as failures")
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
	res, err := analysis.Run(analysis.RunConfig{Dir: cwd, Checks: checks})
	if err != nil {
		fatal(err)
	}

	keep, err := packageFilter(cwd, flag.Args())
	if err != nil {
		fatal(err)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range res.Packages {
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

	if *jsonFlag {
		rep := jsonReport{
			Findings:   make([]jsonFinding, 0, len(diags)),
			Errors:     errors,
			Warnings:   warnings,
			LoadNs:     res.LoadDuration.Nanoseconds(),
			AnalyzerNs: make(map[string]int64, len(res.Analyzers)),
		}
		for name, d := range res.Analyzers {
			rep.AnalyzerNs[name] = d.Nanoseconds()
		}
		for _, d := range diags {
			sev := "error"
			switch d.Severity {
			case analysis.SeverityWarning:
				sev = "warning"
			case analysis.SeverityDirective:
				sev = "directive"
			}
			file := d.Pos.Filename
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			rep.Findings = append(rep.Findings, jsonFinding{
				Check: d.Check, File: file, Line: d.Pos.Line, Column: d.Pos.Column,
				Message: d.Message, Severity: sev,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			line := relativize(cwd, d)
			if d.Severity == analysis.SeverityWarning {
				line += " (warning)"
			}
			fmt.Println(line)
		}
	}

	if *timingFlag {
		pkgs := append([]analysis.PackageResult(nil), res.Packages...)
		sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Duration > pkgs[j].Duration })
		fmt.Fprintf(os.Stderr, "# load+typecheck %.3fs\n", res.LoadDuration.Seconds())
		names := make([]string, 0, len(res.Analyzers))
		for name := range res.Analyzers {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return res.Analyzers[names[i]] > res.Analyzers[names[j]] })
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "# %8.3fms %s\n", float64(res.Analyzers[name].Microseconds())/1000, name)
		}
		for _, p := range pkgs {
			fmt.Fprintf(os.Stderr, "# %8.3fms %s (%d files)\n",
				float64(p.Duration.Microseconds())/1000, p.Path, p.Files)
		}
	}

	fail := errors > 0 || (*strictFlag && warnings > 0)
	if fail {
		fmt.Fprintf(os.Stderr, "sorallint: %d finding(s), %d warning(s)\n", errors, warnings)
		os.Exit(1)
	}
	if warnings > 0 {
		fmt.Fprintf(os.Stderr, "sorallint: %d warning(s) (run with -strict-suppress to fail on them)\n", warnings)
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
