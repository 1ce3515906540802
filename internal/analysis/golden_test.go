package analysis

import (
	"fmt"
	"go/token"
	"math/rand"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness loads a fixture tree under testdata/src/<name>, runs
// one analyzer over every package in it, and compares the diagnostics
// against `// want `pattern`` comments: every diagnostic must match a want
// pattern on its own line, and every want pattern must be matched exactly
// once. Patterns are regular expressions applied to "check: message".

var wantPatternRe = regexp.MustCompile("`([^`]+)`")

type lineKey struct {
	file string
	line int
}

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans every fixture comment for want annotations.
func collectWants(t *testing.T, pr *Program) map[lineKey][]*wantEntry {
	t.Helper()
	wants := map[lineKey][]*wantEntry{}
	for _, pkg := range pr.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := pr.Fset.Position(c.Pos())
					ms := wantPatternRe.FindAllStringSubmatch(c.Text[idx:], -1)
					if len(ms) == 0 {
						t.Fatalf("%s:%d: want comment without a backquoted pattern", pos.Filename, pos.Line)
					}
					for _, m := range ms {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := lineKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &wantEntry{re: re})
					}
				}
			}
		}
	}
	return wants
}

// loadFixture loads testdata/src/<name> in fixture mode (import paths
// relative to the fixture root, standard library via the source importer).
func loadFixture(t *testing.T, name string) *Program {
	t.Helper()
	pr, err := Load(LoadConfig{Dir: filepath.Join("testdata", "src", name)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pr.Packages) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	return pr
}

func runGolden(t *testing.T, check string) {
	t.Helper()
	a, ok := ByName(check)
	if !ok {
		t.Fatalf("no analyzer named %q", check)
	}
	pr := loadFixture(t, check)
	wants := collectWants(t, pr)
	known := map[string]bool{}
	for _, reg := range Analyzers() {
		known[reg.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pr.Packages {
		pkgDiags := AnalyzePackage(pr, pkg, []*Analyzer{a})
		// Apply suppression directives like a production run, so fixtures
		// can carry justified-ignore cases (which must produce no
		// diagnostic and no want line).
		dirs, _ := ParseDirectives(pr.Fset, pkg, known)
		diags = append(diags, Suppress(pkgDiags, dirs)...)
	}
	for _, d := range diags {
		text := fmt.Sprintf("%s: %s", d.Check, d.Message)
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
}

func TestFloatCmpGolden(t *testing.T) { runGolden(t, "floatcmp") }
func TestDivGuardGolden(t *testing.T) { runGolden(t, "divguard") }
func TestMapOrderGolden(t *testing.T) { runGolden(t, "maporder") }
func TestCtxFlowGolden(t *testing.T)  { runGolden(t, "ctxflow") }
func TestScopeNilGolden(t *testing.T) { runGolden(t, "scopenil") }
func TestErrDropGolden(t *testing.T)  { runGolden(t, "errdrop") }

func TestMetricNameGolden(t *testing.T) { runGolden(t, "metricname") }

// TestRegistry pins the registry: sorted, unique, documented.
func TestRegistry(t *testing.T) {
	all := Analyzers()
	if len(all) != 7 {
		t.Fatalf("registry has %d analyzers, want 7", len(all))
	}
	seen := map[string]bool{}
	for i, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %d is missing name, doc, or run", i)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if i > 0 && all[i-1].Name >= a.Name {
			t.Errorf("registry out of order: %q before %q", all[i-1].Name, a.Name)
		}
	}
	if _, ok := ByName("floatcmp"); !ok {
		t.Error("ByName failed to resolve floatcmp")
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("ByName resolved a check that does not exist")
	}
}

// TestSortDiagnosticsShuffle pins the deterministic merged ordering: any
// input permutation sorts to the same sequence, and exact duplicates
// collapse.
func TestSortDiagnosticsShuffle(t *testing.T) {
	diag := func(file string, line, col int, check, msg string) Diagnostic {
		return Diagnostic{Check: check, Pos: token.Position{Filename: file, Line: line, Column: col}, Message: msg}
	}
	base := []Diagnostic{
		diag("a.go", 1, 1, "floatcmp", "m1"),
		diag("a.go", 1, 2, "floatcmp", "m2"),
		diag("a.go", 2, 1, "divguard", "m3"),
		diag("a.go", 2, 1, "floatcmp", "m4"),
		diag("a.go", 2, 1, "floatcmp", "m5"),
		diag("b.go", 1, 1, "maporder", "m6"),
		diag("b.go", 1, 1, "maporder", "m6"), // duplicate
	}
	want := sortDiagnostics(append([]Diagnostic(nil), base...))
	if len(want) != len(base)-1 {
		t.Fatalf("duplicate not collapsed: %d results", len(want))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Diagnostic(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := sortDiagnostics(shuffled)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d differs: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}
