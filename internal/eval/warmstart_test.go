package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"soral/internal/core"
	"soral/internal/model"
	"soral/internal/obs/journal"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/seed_digests.json from the current build")

// seedDigestSpec mirrors the instance behind testdata/seed_digests.json:
// per-slot decision digests of the WarmStart-off pipeline. The fixture was
// first recorded at the commit before the warm-start layer landed, and
// re-recorded from this exact scenario when P2's Newton step became the
// structured block-plus-border solve and when the barrier began following
// the central path (DESIGN.md §15), changes to the arithmetic that move
// the decisions only at rounding level.
func seedDigestSpec() ScenarioSpec {
	return ScenarioSpec{
		NumTier2: 3, NumTier1: 6, K: 2, T: 8,
		Trace: TraceWikipedia, Seed: 7, ReconfWeight: 10,
	}
}

// TestWarmStartOffBitIdenticalToSeed is the warm-start layer's standing
// contract: with WarmStart off (the default), the pipeline commits
// decisions bit-identical to the recorded cold pipeline. Any divergence
// means the off path picked up a warm-start artifact (or the solver's
// arithmetic changed, which must re-record the fixture; core's
// TestStructuredNewtonMatchesDense and TestSeedCostsMatchRecorded below are
// the accuracy gates for that).
func TestWarmStartOffBitIdenticalToSeed(t *testing.T) {
	_, seq := seedRun(t)
	if *updatePins {
		got := make([]string, len(seq))
		for tt, d := range seq {
			got[tt] = journal.Digest(d.X, d.Y, d.Z)
		}
		raw, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(filepath.Join("testdata", "seed_digests.json"), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	readFixture(t, "seed_digests.json", &want)
	if len(seq) != len(want) {
		t.Fatalf("%d decisions, fixture has %d", len(seq), len(want))
	}
	for tt, d := range seq {
		if got := journal.Digest(d.X, d.Y, d.Z); got != want[tt] {
			t.Errorf("slot %d: digest %s != seed %s", tt, got, want[tt])
		}
	}
}

// TestSeedCostsMatchRecorded is the accuracy gate behind seed_digests.json:
// every slot's cost on the same instance must match the cost recorded by
// the solver before the carried-slack line search (DESIGN.md §15;
// testdata/seed_costs.json, never re-recorded) to 1e-9 relative, with every
// decision feasible to 1e-4.
func TestSeedCostsMatchRecorded(t *testing.T) {
	var want []float64
	readFixture(t, "seed_costs.json", &want)
	scen, seq := seedRun(t)
	if len(seq) != len(want) {
		t.Fatalf("%d decisions, fixture has %d", len(seq), len(want))
	}
	acc := model.Accountant{Net: scen.Net, In: scen.In}
	prev := model.NewZeroDecision(scen.Net)
	for tt, d := range seq {
		got := acc.SlotCost(tt, prev, d).Total()
		if diff := math.Abs(got - want[tt]); diff > 1e-9*math.Max(1, math.Abs(want[tt])) {
			t.Errorf("slot %d: cost %.17g, recorded %.17g, |Δ| = %g", tt, got, want[tt], diff)
		}
		if ok, v := d.FeasibleAt(scen.Net, scen.In.Workload[tt], 1e-4); !ok {
			t.Errorf("slot %d: decision infeasible by %g", tt, v)
		}
		prev = d
	}
}

// seedRun runs the WarmStart-off pipeline on seedDigestSpec.
func seedRun(t *testing.T) (*Scenario, []*model.Decision) {
	t.Helper()
	scen, err := Build(seedDigestSpec())
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := core.RunOnlineReport(scen.Net, scen.In, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return scen, seq
}

func readFixture(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

// warmJournalSpec is the journaled warm-run instance shared by the replay
// and resume tests below.
func warmJournalSpec() RunConfig {
	return RunConfig{
		Spec:      ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, T: 8, Trace: TraceWikipedia, Seed: 7, ReconfWeight: 10},
		Algorithm: "online",
		WarmStart: true,
	}
}

// TestWarmJournalReplaysAndResumes covers the crash-safety contract for
// warm runs end to end: a journaled warm run replays cleanly (including the
// warm-vs-cold iteration reconciliation), and a run resumed from a
// truncated journal — where the fresh process has discarded the warm-start state —
// reproduces the uninterrupted run's decisions bit-for-bit.
func TestWarmJournalReplaysAndResumes(t *testing.T) {
	dir := t.TempDir()
	ref := recordTo(t, warmJournalSpec(), filepath.Join(dir, "warm.jsonl"))
	want := digestsOf(t, ref)

	j, err := journal.Read(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(context.Background(), j)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("warm journal replay found mismatches: %+v", rep.Mismatches)
	}
	warmRecorded := 0
	for _, rec := range j.Slots {
		if rec.Warm {
			warmRecorded++
		}
	}
	if warmRecorded == 0 {
		t.Fatalf("warm run journal recorded no warm slots")
	}

	// Truncate mid-run — keep the header and the first three slot/state
	// pairs — then resume. The resumed process starts with a fresh (empty)
	// warm-start state, exactly like a post-crash restart, and must still commit
	// the uninterrupted run's decisions.
	lines := bytes.SplitAfter(ref, []byte("\n"))
	path := filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(path, bytes.Join(lines[:7], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	resumeFile(t, path, ResumeOptions{})
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := digestsOf(t, whole)
	if len(got) != len(want) {
		t.Fatalf("resumed run committed %d slots, want %d", len(got), len(want))
	}
	for tt := range want {
		if got[tt] != want[tt] {
			t.Errorf("slot %d: resumed digest differs from uninterrupted warm run", tt)
		}
	}
}

// stateLines returns every state checkpoint of a journal file, in order.
func stateLines(t *testing.T, b []byte) []journal.StateRecord {
	t.Helper()
	var out []journal.StateRecord
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"kind":"state"`)) {
			continue
		}
		var st journal.StateRecord
		if err := json.Unmarshal(line, &st); err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// TestWarmResumeFromEveryCheckpoint holds the carried duals to the resume
// contract: on a 48-slot warm World Cup run, a resume from the checkpoint
// of every slot — each journal cut right behind that slot's state line —
// commits the uninterrupted run's decisions and checkpoints its duals, the
// slot they were solved at included, bit for bit. Every checkpoint of the
// reference run must carry duals.
func TestWarmResumeFromEveryCheckpoint(t *testing.T) {
	cfg := RunConfig{
		Spec:      ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, T: 48, Trace: TraceWorldCup, Seed: 1, ReconfWeight: 10},
		Algorithm: "online",
		WarmStart: true,
	}
	dir := t.TempDir()
	ref := recordTo(t, cfg, filepath.Join(dir, "ref.jsonl"))
	want := stateLines(t, ref)
	if len(want) != cfg.Spec.T {
		t.Fatalf("reference run checkpointed %d slots, want %d", len(want), cfg.Spec.T)
	}
	for _, st := range want {
		if len(st.Duals) == 0 {
			t.Fatalf("slot %d checkpoints no duals", st.Slot)
		}
	}
	lines := bytes.SplitAfter(ref, []byte("\n"))
	for k := 0; k < cfg.Spec.T-1; k++ {
		path := filepath.Join(dir, "cut.jsonl")
		if err := os.WriteFile(path, bytes.Join(lines[:3+2*k], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		res := resumeFile(t, path, ResumeOptions{})
		if res.StartSlot != k+1 || res.CaughtUp != 0 {
			t.Fatalf("cut after slot %d: resumed at %d with %d caught up", k, res.StartSlot, res.CaughtUp)
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := stateLines(t, whole)
		if len(got) != len(want) {
			t.Fatalf("cut after slot %d: %d checkpoints, want %d", k, len(got), len(want))
		}
		for s := k + 1; s < len(want); s++ {
			g, w := got[s], want[s]
			if g.DecisionDigest != w.DecisionDigest || g.DualsSlot != w.DualsSlot || !sameBits(g.Duals, w.Duals) {
				t.Fatalf("cut after slot %d: slot %d diverged from the uninterrupted run (duals of slot %d, want %d)",
					k, s, g.DualsSlot, w.DualsSlot)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestColdStepsPerSlot bounds the barrier's cost on the warm-start
// experiment's instance: the cold (WarmStart off) run's mean Newton steps a
// steady-state slot, the count the experiment reports as the cold entry's
// mean_iters, must be at most 40. Step counts are deterministic, so the
// bound reads no clock. Following the central path (DESIGN.md §15) brought
// it from 65.5 to under 40.
func TestColdStepsPerSlot(t *testing.T) {
	m, err := warmstartRun(warmstartSpec(), "cold", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f Newton steps a steady-state slot over %d slots of %d repeats", m.entry.meanIters, m.entry.samples, warmstartRepeats)
	if m.entry.samples == 0 || m.entry.meanIters > 40 {
		t.Errorf("cold mean %.2f Newton steps a slot over %d slots of %d repeats, want ≤ 40",
			m.entry.meanIters, m.entry.samples, warmstartRepeats)
	}
}

// TestQuantileNsNearestRank pins quantileNs to the nearest-rank rule the
// log-bucketed histograms use (hist.Quantile): the q-quantile of n samples
// is the ceil(q·n)-th smallest, ranked from 1 and clamped to at least 1.
func TestQuantileNsNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // descending: quantileNs must sort
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		samples []int64
		q       float64
		want    int64
	}{
		{"empty", nil, 0.5, 0},
		{"n=4 p50", seq(4), 0.5, 2},
		{"n=100 p99", seq(100), 0.99, 99},
		{"n=4 q=1", seq(4), 1, 4},
		{"n=100 q=1", seq(100), 1, 100},
		{"n=4 q=0", seq(4), 0, 1},
	} {
		if got := quantileNs(tc.samples, tc.q); got != tc.want {
			t.Errorf("%s: quantileNs(q=%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
}
