package eval

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func kernelEntries(scale float64, bitIdentical bool) []BenchEntry {
	names := []string{"cholesky/n=64/w=1", "symrankk/n=64/w=1", "assemble/n=64/w=1", "blocktri/n=64/w=1"}
	base := []float64{45511, 72420, 2867, 9832}
	out := make([]BenchEntry, len(names))
	for i := range names {
		bi := bitIdentical
		out[i] = BenchEntry{
			Name: names[i],
			Metrics: map[string]float64{
				"ns_per_op": base[i] * scale,
				"speedup":   1.7,
			},
			BitIdentical: &bi,
		}
	}
	return out
}

func TestCompareIdenticalPasses(t *testing.T) {
	old := kernelEntries(1, true)
	diff := Compare(old, kernelEntries(1, true), CompareOptions{})
	if diff.Regressed() {
		var sb strings.Builder
		_ = diff.WriteText(&sb)
		t.Fatalf("identical snapshots regressed:\n%s", sb.String())
	}
	for _, f := range diff.Families {
		if f.Worse != 0 || f.Median != 0 {
			t.Fatalf("identical snapshot family %+v has nonzero drift", f)
		}
	}
}

func TestCompareUniformSlowdownFails(t *testing.T) {
	diff := Compare(kernelEntries(1, true), kernelEntries(2, true), CompareOptions{})
	if !diff.Regressed() {
		t.Fatal("2x slowdown across every kernel did not regress")
	}
	var hit *FamilyVerdict
	for i := range diff.Families {
		if diff.Families[i].Metric == "ns_per_op" {
			hit = &diff.Families[i]
		}
	}
	if hit == nil || !hit.Regressed {
		t.Fatalf("ns_per_op family not flagged: %+v", diff.Families)
	}
	if hit.Rule != "sign-test" && hit.Rule != "min-of-k" {
		t.Fatalf("rule = %q, want sign-test or min-of-k", hit.Rule)
	}
}

func TestCompareNoiseBelowHalfThresholdPasses(t *testing.T) {
	// A uniform 5% drift is below τ/2 = 10%: the sign test's median gate and
	// min-of-K's floor both hold it back.
	diff := Compare(kernelEntries(1, true), kernelEntries(1.05, true), CompareOptions{})
	if diff.Regressed() {
		t.Fatal("5% drift regressed at the default 20% threshold")
	}
	// Tightening τ to 8% makes the same drift a regression.
	diff = Compare(kernelEntries(1, true), kernelEntries(1.05, true), CompareOptions{Threshold: 0.08})
	if !diff.Regressed() {
		t.Fatal("5% drift passed at an 8% threshold")
	}
}

func TestCompareBitIdentityBreakIsUnconditional(t *testing.T) {
	// Timings improve, but a kernel lost bit identity: still a regression.
	diff := Compare(kernelEntries(1, true), kernelEntries(0.5, false), CompareOptions{})
	if !diff.Regressed() {
		t.Fatal("bit-identity break did not regress")
	}
	if len(diff.BitBreaks) != 4 {
		t.Fatalf("bit breaks = %v, want all four cells", diff.BitBreaks)
	}
}

func TestCompareSingleEntryNeedsFullThreshold(t *testing.T) {
	mk := func(ns float64) []BenchEntry {
		return []BenchEntry{{Name: "fig5", Metrics: map[string]float64{"ns_per_op": ns}}}
	}
	if Compare(mk(100), mk(115), CompareOptions{}).Regressed() {
		t.Fatal("15% single-entry drift regressed below τ")
	}
	if !Compare(mk(100), mk(130), CompareOptions{}).Regressed() {
		t.Fatal("30% single-entry drift passed")
	}
}

func TestCompareSpeedupDirection(t *testing.T) {
	for _, metric := range []string{"speedup", "speedup_p50"} {
		mk := func(sp float64) []BenchEntry {
			out := make([]BenchEntry, 3)
			for i, n := range []string{"a", "b", "c"} {
				out[i] = BenchEntry{Name: n, Metrics: map[string]float64{metric: sp}}
			}
			return out
		}
		// Speedup dropping from 2.0 to 1.5 is a 25% worsening.
		if !Compare(mk(2.0), mk(1.5), CompareOptions{}).Regressed() {
			t.Fatalf("%s collapse passed", metric)
		}
		// Speedup rising is an improvement, not a regression.
		if Compare(mk(1.5), mk(2.0), CompareOptions{}).Regressed() {
			t.Fatalf("%s improvement regressed", metric)
		}
	}
}

func TestCompareUnpairedEntriesReportedNotFailed(t *testing.T) {
	old := []BenchEntry{{Name: "gone", Metrics: map[string]float64{"ns_per_op": 1}}}
	newE := []BenchEntry{{Name: "fresh", Metrics: map[string]float64{"ns_per_op": 1}}}
	diff := Compare(old, newE, CompareOptions{})
	if diff.Regressed() {
		t.Fatal("coverage change alone regressed")
	}
	if len(diff.OnlyOld) != 1 || diff.OnlyOld[0] != "gone" {
		t.Fatalf("OnlyOld = %v", diff.OnlyOld)
	}
	if len(diff.OnlyNew) != 1 || diff.OnlyNew[0] != "fresh" {
		t.Fatalf("OnlyNew = %v", diff.OnlyNew)
	}
}

func TestBinomTailExact(t *testing.T) {
	cases := []struct {
		n, w int
		want float64
	}{
		{5, 5, 1.0 / 32},
		{5, 0, 1},
		{4, 4, 1.0 / 16},
		{10, 9, 11.0 / 1024}, // C(10,9)+C(10,10) = 11
		{1, 1, 0.5},
	}
	for _, c := range cases {
		if got := binomTail(c.n, c.w); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("binomTail(%d,%d) = %g, want %g", c.n, c.w, got, c.want)
		}
	}
}

// TestLoadBenchBothSchemas pins the two sides of the schema boundary: a
// file in the unified schema loads with its envelope, metrics and
// bit-identity verdicts, and a file in a pre-unification shape is rejected
// by name instead of loading as an empty snapshot.
func TestLoadBenchBothSchemas(t *testing.T) {
	unified := `{"cores":4,"gomaxprocs":4,"workers":2,"results":[
		{"name":"cholesky/n=64/w=2","metrics":{"ns_per_op":100,"speedup":1.5},"info":{"iters":10},"bit_identical":true},
		{"name":"fig5","metrics":{"ns_per_op":1234,"solver_iterations.lp.mehrotra.iterations":50}}]}`
	entries, env, err := LoadBenchEnv(strings.NewReader(unified))
	if err != nil {
		t.Fatal(err)
	}
	if env != (BenchEnv{Cores: 4, GoMaxProcs: 4, Workers: 2}) {
		t.Fatalf("envelope = %+v", env)
	}
	if len(entries) != 2 || entries[0].Name != "cholesky/n=64/w=2" || entries[1].Name != "fig5" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].BitIdentical == nil || !*entries[0].BitIdentical || entries[0].Metrics["speedup"] != 1.5 || entries[0].Info["iters"] != 10 {
		t.Fatalf("kernel entry = %+v", entries[0])
	}
	if entries[1].BitIdentical != nil || entries[1].Metrics["solver_iterations.lp.mehrotra.iterations"] != 50 {
		t.Fatalf("experiment entry = %+v", entries[1])
	}

	for _, old := range []string{
		`{"cores":1,"gomaxprocs":1,"results":[{"kernel":"cholesky","n":64,"workers":1,"ns_per_op":100,"bit_identical":true}]}`,
		`{"name":"fig5","iters":1,"ns_per_op":1234,"total_solver_iterations":70}`,
		`{"neither":true}`,
	} {
		if _, err := LoadBench(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "results[") || !strings.Contains(err.Error(), "name") {
			t.Fatalf("old-shape file %s: err = %v, want one naming results[].name", old, err)
		}
	}
}

// TestCommittedBenchFilesLoad loads every committed results/BENCH_*.json
// through the one schema: each must yield named entries under a recorded
// envelope and compare clean against itself, so schema drift between the
// writers and the loader fails here rather than only in make bench-compare.
func TestCommittedBenchFilesLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH files found")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		entries, env, err := LoadBenchEnv(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if env.Cores <= 0 || env.GoMaxProcs <= 0 {
			t.Fatalf("%s: envelope not recorded: %+v", path, env)
		}
		for _, e := range entries {
			if len(e.Metrics) == 0 {
				t.Fatalf("%s: entry %q has no metrics", path, e.Name)
			}
		}
		if d := Compare(entries, entries, CompareOptions{}); d.Regressed() {
			t.Fatalf("%s: self-compare regressed", path)
		}
	}
}

// TestCompareSkipsInfo pins that Info numbers are never scored: a faster
// kernel times more loop iterations, and a warm-start collapse shows as
// fewer warm slots, yet neither may read as a regression or an improvement.
func TestCompareSkipsInfo(t *testing.T) {
	oldK, newK := kernelEntries(1, true), kernelEntries(1, true)
	for i := range oldK {
		oldK[i].Info = map[string]float64{"iters": 100}
		newK[i].Info = map[string]float64{"iters": 1000}
	}
	oldW := []BenchEntry{{Name: "warmstart/warm", Metrics: map[string]float64{"p50_ns": 4e5},
		Info: map[string]float64{"warm_slots": 100, "cache_hits": 0}}}
	newW := []BenchEntry{{Name: "warmstart/warm", Metrics: map[string]float64{"p50_ns": 4e5},
		Info: map[string]float64{"warm_slots": 10, "cache_hits": 0}}}
	for _, d := range []*BenchDiff{Compare(oldK, newK, CompareOptions{}), Compare(oldW, newW, CompareOptions{})} {
		if d.Regressed() {
			t.Fatal("a change in Info regressed the comparison")
		}
		for _, md := range d.Deltas {
			if md.Metric == "iters" || md.Metric == "warm_slots" || md.Metric == "cache_hits" {
				t.Fatalf("Info number scored: %+v", md)
			}
		}
	}
}

func TestCompareAddedFamiliesSummarized(t *testing.T) {
	old := []BenchEntry{{Name: "kernels/cholesky", Metrics: map[string]float64{"ns_per_op": 1}}}
	newE := []BenchEntry{
		{Name: "kernels/cholesky", Metrics: map[string]float64{"ns_per_op": 1}},
		{Name: "warmstart/cold", Metrics: map[string]float64{"p50_ns": 3e6}},
		{Name: "warmstart/warm", Metrics: map[string]float64{"p50_ns": 4e5}},
		{Name: "warmstart/cache", Metrics: map[string]float64{"p50_ns": 700}},
	}
	diff := Compare(old, newE, CompareOptions{})
	if diff.Regressed() {
		t.Fatal("new-only coverage regressed the comparison")
	}
	if len(diff.Added) != 1 || diff.Added[0].Family != "warmstart" || diff.Added[0].N != 3 {
		t.Fatalf("Added = %+v, want one warmstart family of 3 entries", diff.Added)
	}
}
