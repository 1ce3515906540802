package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"soral/internal/core"
	"soral/internal/obs/journal"
)

// seedDigestSpec mirrors the instance behind testdata/seed_digests.json:
// per-slot decision digests of the WarmStart-off pipeline. The fixture was
// first recorded at the commit before the warm-start layer landed, and
// re-recorded from this exact scenario when P2's Newton step became the
// structured block-plus-border solve (DESIGN.md §15), which changes the
// arithmetic but not the decisions beyond rounding.
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
// TestStructuredNewtonMatchesDense is the accuracy gate for that).
func TestWarmStartOffBitIdenticalToSeed(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "seed_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	scen, err := Build(seedDigestSpec())
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := core.RunOnlineReport(scen.Net, scen.In, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(want) {
		t.Fatalf("%d decisions, fixture has %d", len(seq), len(want))
	}
	for tt, d := range seq {
		if got := journal.Digest(d.X, d.Y, d.Z); got != want[tt] {
			t.Errorf("slot %d: digest %s != seed %s", tt, got, want[tt])
		}
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
// truncated journal — where the fresh process has discarded the SolveState —
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
	// SolveState, exactly like a post-crash restart, and must still commit
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
