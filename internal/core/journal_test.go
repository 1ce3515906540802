package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/journal"
	"soral/internal/obs/obstest"
	"soral/internal/resilience"
)

// TestOnlineJournalsEverySlot runs the online algorithm with a flight
// recorder attached and checks that the journal parses, covers every slot,
// and that its digests and objective terms reconcile with the decisions and
// the accountant — the invariants replay relies on.
func TestOnlineJournalsEverySlot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := model.RandomNetwork(rng, 3, 3, 2, 20)
	in := model.RandomInputs(rng, n, 8)

	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	health := resilience.NewHealth()
	opts := DefaultOptions()
	opts.Journal = w
	opts.Health = health

	w.Begin(journal.Header{Algorithm: "online", ConfigDigest: journal.DigestBytes([]byte("test")), Seed: 7})
	seq, rep, err := RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.End(journal.Footer{})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	j, err := journal.Read(&buf)
	if err != nil {
		t.Fatalf("journal does not parse: %v", err)
	}
	if len(j.Slots) != in.T || j.Footer == nil || j.Footer.Slots != in.T {
		t.Fatalf("journal has %d slots (footer %+v), want %d", len(j.Slots), j.Footer, in.T)
	}

	acct := model.Accountant{Net: n, In: in}
	prev := model.NewZeroDecision(n)
	for ts, rec := range j.Slots {
		if rec.Slot != ts {
			t.Fatalf("record %d has slot %d", ts, rec.Slot)
		}
		if want := InputsDigest(in, ts); rec.InputsDigest != want {
			t.Fatalf("slot %d inputs digest = %s, want %s", ts, rec.InputsDigest, want)
		}
		d := seq[ts]
		if want := journal.Digest(d.X, d.Y, d.Z); rec.DecisionDigest != want {
			t.Fatalf("slot %d decision digest = %s, want %s", ts, rec.DecisionDigest, want)
		}
		cost := acct.SlotCost(ts, prev, d)
		if rec.AllocCost != cost.Allocation() || rec.ReconfCost != cost.Reconfiguration() {
			t.Fatalf("slot %d costs = (%g, %g), want (%g, %g)",
				ts, rec.AllocCost, rec.ReconfCost, cost.Allocation(), cost.Reconfiguration())
		}
		if rec.Status != rep.Slots[ts].Status.String() {
			t.Fatalf("slot %d status = %q, report says %q", ts, rec.Status, rep.Slots[ts].Status)
		}
		prev = d
	}

	hs := health.Snapshot()
	if hs.Slots != in.T || !hs.Healthy() || hs.LastSlot != in.T-1 {
		t.Fatalf("health snapshot = %+v, want %d healthy slots ending at %d", hs, in.T, in.T-1)
	}
}

// TestOnlineJournalRecordsDegradation forces the whole ladder to fail so the
// first slot carries forward, then checks both sinks report it: the journal
// record is marked degraded with the carry tactic as its rung, and the
// health tracker flips to the degraded state /healthz answers 503 from.
func TestOnlineJournalRecordsDegradation(t *testing.T) {
	n := oneByOne(t, 5, 5, 1)
	in := inputsFor([]float64{4, 3}, []float64{1, 1})

	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	health := resilience.NewHealth()
	opts := DefaultOptions()
	opts.Journal = w
	opts.Health = health
	opts.Solver.Fault = &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 0}

	w.Begin(journal.Header{Algorithm: "online", ConfigDigest: journal.DigestBytes([]byte("test")), Seed: 1})
	o, err := NewOnline(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(); err != nil {
		t.Fatalf("degraded slot must not abort: %v", err)
	}

	if hs := health.Snapshot(); hs.Healthy() || hs.ConsecutiveDegraded != 1 {
		t.Fatalf("health after degraded slot = %+v, want degraded streak of 1", hs)
	}

	w.End(journal.Footer{})
	j, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec := j.Slots[0]
	if rec.Status != journal.StatusDegraded {
		t.Fatalf("journal status = %q, want %q", rec.Status, journal.StatusDegraded)
	}
	if rec.Rung == "" {
		t.Fatal("degraded record is missing its carry tactic rung")
	}
	if j.Footer.Degraded != 1 {
		t.Fatalf("footer degraded = %d, want 1", j.Footer.Degraded)
	}
}

// TestSlotIterationsIndependentOfScope runs the same config with and
// without an obs scope and checks that every slot reports, and journals,
// the same iteration count and the same record keys, wall time included:
// the count comes from what the solvers return and the time from Step's own
// clock, not from the scope. The plans cover a clean run, a first rung that
// fails mid-solve (its Newton steps still count), and a fully failed ladder
// whose slot the repair LP decides. The scope's MetricSolverIters counter
// agrees with the report in every case.
func TestSlotIterationsIndependentOfScope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := model.RandomNetwork(rng, 2, 3, 2, 20)
	in := model.RandomInputs(rng, n, 5)
	for _, tc := range []struct {
		name  string
		plan  func() *resilience.FaultPlan
		slot0 SlotStatus
	}{
		{"clean", func() *resilience.FaultPlan { return nil }, SlotOK},
		{"first-rung-fails", func() *resilience.FaultPlan {
			return &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 2, MaxTrips: 1}
		}, SlotRecovered},
		{"ladder-fails", func() *resilience.FaultPlan {
			return &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 1}
		}, SlotDegraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(scoped bool) (*Report, *journal.Journal, []string, int64) {
				opts := DefaultOptions()
				opts.WarmStart = true
				opts.Solver.Fault = tc.plan()
				var buf bytes.Buffer
				opts.Journal = journal.NewWriter(&buf)
				var rec *obstest.Recorder
				if scoped {
					opts.Obs, rec = obstest.NewScope()
				}
				opts.Journal.Begin(journal.Header{Algorithm: "online"})
				_, rep, err := RunOnlineReport(n, in, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Journal.End(journal.Footer{TotalIters: rep.TotalIterations()})
				j, err := journal.Read(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				var counter int64
				if rec != nil {
					counter = rec.Counter(obs.MetricSolverIters)
				}
				return rep, j, slotRecordKeys(t, buf.Bytes()), counter
			}
			plain, plainJ, plainKeys, _ := run(false)
			scoped, scopedJ, scopedKeys, counter := run(true)
			for i, sr := range plain.Slots {
				if sr.Iterations <= 0 {
					t.Fatalf("slot %d reports %d iterations, want > 0", sr.Slot, sr.Iterations)
				}
				if got := scoped.Slots[i].Iterations; got != sr.Iterations {
					t.Fatalf("slot %d: %d iterations with a scope, %d without", sr.Slot, got, sr.Iterations)
				}
				if plainJ.Slots[i].Iters != sr.Iterations || scopedJ.Slots[i].Iters != sr.Iterations {
					t.Fatalf("slot %d: journaled iters %d (plain) and %d (scoped), report %d",
						sr.Slot, plainJ.Slots[i].Iters, scopedJ.Slots[i].Iters, sr.Iterations)
				}
				if plainJ.Slots[i].DurNS <= 0 || plainJ.Slots[i].DurNS != sr.Duration.Nanoseconds() {
					t.Fatalf("slot %d: journaled dur_ns %d without a scope, report %v",
						sr.Slot, plainJ.Slots[i].DurNS, sr.Duration)
				}
				if plainKeys[i] != scopedKeys[i] {
					t.Fatalf("slot %d record keys differ:\nplain:  %s\nscoped: %s", sr.Slot, plainKeys[i], scopedKeys[i])
				}
			}
			if plainJ.Footer.TotalIters != scopedJ.Footer.TotalIters {
				t.Fatalf("footer total_iters %d (plain) != %d (scoped)", plainJ.Footer.TotalIters, scopedJ.Footer.TotalIters)
			}
			if plain.Slots[0].Status != tc.slot0 {
				t.Fatalf("slot 0 status %v, want %v", plain.Slots[0].Status, tc.slot0)
			}
			if int64(scoped.TotalIterations()) != counter {
				t.Fatalf("report total %d != %s counter %d", scoped.TotalIterations(), obs.MetricSolverIters, counter)
			}
		})
	}
}

// TestPanickedAttemptIterationsMatchCounter runs a slot whose first P2
// attempt panics mid-solve, at Newton step 2, with a scope: the barrier on
// a cold run's slot 0, the primal–dual loop on a warm run's slot 2. Every
// slot's SlotReport.Iterations must equal its delta of the solver.iterations
// counter, so the steps run before the panic are counted once in each.
func TestPanickedAttemptIterationsMatchCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := model.RandomNetwork(rng, 2, 3, 2, 20)
	in := model.RandomInputs(rng, n, 5)
	for _, tc := range []struct {
		name      string
		warm      bool
		faultSlot int
	}{
		{"barrier", false, 0},
		{"primal-dual", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.WarmStart = tc.warm
			var rec *obstest.Recorder
			opts.Obs, rec = obstest.NewScope()
			o, err := NewOnline(n, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < in.T; slot++ {
				if slot == tc.faultSlot {
					o.Opts.Solver.Fault = &resilience.FaultPlan{Panic: true, PanicAt: 2, MaxTrips: 1}
				}
				before := rec.Counter(obs.MetricSolverIters)
				fallbacks := rec.Counter(obs.MetricWarmFallbacks)
				if _, err := o.Step(); err != nil {
					t.Fatal(err)
				}
				sr := o.Report().Slots[slot]
				if delta := rec.Counter(obs.MetricSolverIters) - before; int64(sr.Iterations) != delta {
					t.Fatalf("slot %d: report %d iterations, %s counter delta %d", slot, sr.Iterations, obs.MetricSolverIters, delta)
				}
				if slot != tc.faultSlot {
					continue
				}
				if tc.warm {
					if rec.Counter(obs.MetricWarmFallbacks) != fallbacks+1 {
						t.Fatalf("slot %d: the warm attempt did not fall back", slot)
					}
				} else if se, ok := resilience.AsSolveError(sr.Ladder.Attempts[0].Err); !ok || se.Class != resilience.ClassPanic {
					t.Fatalf("slot %d first attempt: %v, want a panic", slot, sr.Ladder.Attempts[0].Err)
				}
				if sr.Iterations <= sr.SolveIters {
					t.Fatalf("slot %d: %d iterations, no more than the committing attempt's %d", slot, sr.Iterations, sr.SolveIters)
				}
			}
		})
	}
}

// slotRecordKeys returns, per slot record of a raw journal, its sorted
// top-level JSON keys joined by commas.
func slotRecordKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var out []string
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if string(rec["kind"]) != `"`+journal.KindSlot+`"` {
			continue
		}
		keys := make([]string, 0, len(rec))
		for k := range rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, strings.Join(keys, ","))
	}
	return out
}
