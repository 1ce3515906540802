package core

import (
	"math/rand"
	"testing"

	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/obstest"
	"soral/internal/resilience"
)

// TestOnlineTraceReconciles is the telemetry acceptance test: a full online
// run with tracing enabled must produce a trace whose per-slot spans and
// iteration events reconcile exactly with the Report's iteration and timing
// fields.
func TestOnlineTraceReconciles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := model.RandomNetwork(rng, 2, 3, 2, 20)
	in := model.RandomInputs(rng, n, 5)

	sc, rec := obstest.NewScope()
	opts := DefaultOptions()
	opts.Obs = sc

	seq, report, err := RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != in.T || len(report.Slots) != in.T {
		t.Fatalf("got %d decisions / %d slot reports, want %d", len(seq), len(report.Slots), in.T)
	}

	// One slot span per decided slot, and its end event must carry the same
	// iteration delta and duration as the SlotReport.
	ends := rec.Kind(obs.KindSpanEnd)
	var slotEnds []obs.Event
	for _, e := range ends {
		if e.Name == "core.slot" {
			slotEnds = append(slotEnds, e)
		}
	}
	if len(slotEnds) != len(report.Slots) {
		t.Fatalf("%d core.slot span_end events, want %d", len(slotEnds), len(report.Slots))
	}
	iterBySlot := map[int]int{}
	for _, e := range rec.Kind(obs.KindIter) {
		iterBySlot[e.Slot]++
	}
	for i, sr := range report.Slots {
		e := slotEnds[i]
		if e.Slot != sr.Slot {
			t.Fatalf("span %d is for slot %d, report says %d", i, e.Slot, sr.Slot)
		}
		if sr.Iterations <= 0 {
			t.Fatalf("slot %d reports %d iterations, want > 0", sr.Slot, sr.Iterations)
		}
		if e.Iters != sr.Iterations {
			t.Fatalf("slot %d: span_end iters %d != report iterations %d", sr.Slot, e.Iters, sr.Iterations)
		}
		if e.DurNS != sr.Duration.Nanoseconds() {
			t.Fatalf("slot %d: span_end dur_ns %d != report duration %d", sr.Slot, e.DurNS, sr.Duration.Nanoseconds())
		}
		if got := iterBySlot[sr.Slot]; got != sr.Iterations {
			t.Fatalf("slot %d: %d iter events != report iterations %d", sr.Slot, got, sr.Iterations)
		}
	}
	// The report total must equal the shared counter: every iteration is
	// recorded exactly once.
	if total := report.TotalIterations(); int64(total) != rec.Counter(obs.MetricSolverIters) {
		t.Fatalf("report total %d != %s counter %d", total, obs.MetricSolverIters, rec.Counter(obs.MetricSolverIters))
	}
	if report.TotalDuration() <= 0 {
		t.Fatal("report total duration is zero with tracing enabled")
	}
	// Every slot climbed a ladder: at least one rung event per slot.
	if rungs := rec.Kind(obs.KindRung); len(rungs) < in.T {
		t.Fatalf("%d rung events, want >= %d", len(rungs), in.T)
	}
}

// TestLadderAttemptTelemetry checks the resilience satellite: attempts carry
// wall time and the iterations their solves ran, with or without a scope,
// and with one the iterations sum to the shared counter.
func TestLadderAttemptTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := model.RandomNetwork(rng, 2, 2, 1, 20)
	in := model.RandomInputs(rng, n, 2)

	climb := func(sc *obs.Scope) *resilience.LadderReport {
		opts := DefaultOptions()
		opts.Obs = sc
		// Force the first rung to fail so the ladder records a failed
		// attempt followed by a successful one.
		opts.Solver.Fault = &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 1, MaxTrips: 1}
		_, ladder, err := SolveP2Resilient(n, in, 0, model.NewZeroDecision(n), opts)
		if err != nil {
			t.Fatal(err)
		}
		return ladder
	}
	sc, rec := obstest.NewScope()
	ladder, plain := climb(sc), climb(nil)
	if len(ladder.Attempts) < 2 {
		t.Fatalf("expected a failed rung plus a recovery, got %d attempts", len(ladder.Attempts))
	}
	if len(plain.Attempts) != len(ladder.Attempts) {
		t.Fatalf("%d attempts without a scope, %d with one", len(plain.Attempts), len(ladder.Attempts))
	}
	for i, a := range ladder.Attempts {
		if a.Duration <= 0 || plain.Attempts[i].Duration <= 0 {
			t.Fatalf("attempt %d (%s) has no duration", i, a.Rung)
		}
		if a.Iterations <= 0 || plain.Attempts[i].Iterations != a.Iterations {
			t.Fatalf("attempt %d (%s): %d iterations with a scope, %d without, want equal and > 0",
				i, a.Rung, a.Iterations, plain.Attempts[i].Iterations)
		}
	}
	if succ := ladder.Attempts[len(ladder.Attempts)-1]; succ.Err != nil {
		t.Fatalf("successful rung %q: err=%v", succ.Rung, succ.Err)
	}
	if int64(ladder.Iterations()) != rec.Counter(obs.MetricSolverIters) {
		t.Fatalf("attempt iteration sum %d != counter %d", ladder.Iterations(), rec.Counter(obs.MetricSolverIters))
	}
	statuses := map[string]bool{}
	for _, e := range rec.Kind(obs.KindRung) {
		statuses[e.Status] = true
	}
	if !statuses["ok"] || len(statuses) < 2 {
		t.Fatalf("rung events should include ok and a failure class, got %v", statuses)
	}
}
