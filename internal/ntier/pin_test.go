package ntier

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"soral/internal/convex"
	"soral/internal/obs/journal"
)

var updatePins = flag.Bool("update", false, "rewrite the testdata pins from the current build")

// pinnedOnline runs the pinned N-tier online instance: the diamond3
// topology over eight seeded workloads. Its P2 has no block map and so
// takes the solver's single-block (dense) Newton path.
func pinnedOnline(t *testing.T) (*System, *Inputs, []*Decision) {
	t.Helper()
	s, err := Compile(diamond3(50), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(140))
	lam := make([]float64, 8)
	for i := range lam {
		lam[i] = rng.Float64() * 15
	}
	in := inputs3(s, lam, 1)
	seq, err := RunOnline(s, in, Params{Eps: 1e-2}, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, in, seq
}

// TestRunOnlineNilBlockMapPinned pins the N-tier online run to per-slot
// decision digests (testdata/online_digests.json), recorded before the
// structured Newton step landed and re-recorded when the line search began
// carrying the slack along the search ray, when the barrier began
// following the central path (DESIGN.md §15) and when each slot's phase-I
// start gave way to a structured one. Any drift means
// the solver's arithmetic changed: TestRunOnlineMatchesRecordedCosts is
// the accuracy gate a re-recording must pass first.
func TestRunOnlineNilBlockMapPinned(t *testing.T) {
	_, _, seq := pinnedOnline(t)
	got := make([]string, len(seq))
	for ts, d := range seq {
		groups := append(append([][]float64{}, d.Alloc...), d.S)
		got[ts] = journal.Digest(groups...)
	}
	path := filepath.Join("testdata", "online_digests.json")
	if *updatePins {
		raw, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d slots, pin has %d", len(got), len(want))
	}
	for ts := range want {
		if got[ts] != want[ts] {
			t.Errorf("slot %d: digest %s != pinned %s", ts, got[ts], want[ts])
		}
	}
}

// TestRunOnlineMatchesRecordedCosts is the accuracy gate behind the digest
// pin above: every slot's cost must match the cost recorded by the solver
// before the carried-slack line search (testdata/online_costs.json, never
// re-recorded) to 1e-9 relative, with every decision feasible to 1e-4.
func TestRunOnlineMatchesRecordedCosts(t *testing.T) {
	s, in, seq := pinnedOnline(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "online_costs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(want) {
		t.Fatalf("%d slots, recorded %d", len(seq), len(want))
	}
	prev := NewZeroDecision(s)
	for ts, d := range seq {
		got := s.SlotCost(in, ts, prev, d)
		if diff := math.Abs(got - want[ts]); diff > 1e-9*math.Max(1, math.Abs(want[ts])) {
			t.Errorf("slot %d: cost %.17g, recorded %.17g, |Δ| = %g", ts, got, want[ts], diff)
		}
		if ok, v := d.FeasibleAt(s, in.Workload[ts], 1e-4); !ok {
			t.Errorf("slot %d: decision infeasible by %g", ts, v)
		}
		prev = d
	}
}
