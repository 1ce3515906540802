package ntier

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"soral/internal/convex"
	"soral/internal/obs/journal"
)

var updatePins = flag.Bool("update", false, "rewrite the testdata pins from the current build")

// TestRunOnlineNilBlockMapPinned pins the N-tier online run, whose P2 has no
// block map and so takes the solver's single-block (dense) Newton path, to
// per-slot decision digests recorded before the structured Newton step
// landed (testdata/online_digests.json). Any drift means the nil-map path no
// longer reproduces the dense factorization bit for bit.
func TestRunOnlineNilBlockMapPinned(t *testing.T) {
	s, err := Compile(diamond3(50), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(140))
	lam := make([]float64, 8)
	for i := range lam {
		lam[i] = rng.Float64() * 15
	}
	seq, err := RunOnline(s, inputs3(s, lam, 1), Params{Eps: 1e-2}, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
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
