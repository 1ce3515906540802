package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"soral/internal/model"
	"soral/internal/resilience"
)

func TestReportCleanRun(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	n := model.RandomNetwork(rng, 2, 2, 1, 15)
	in := model.RandomInputs(rng, n, 4)
	seq, rep, err := RunOnlineReport(n, in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 4 || len(rep.Slots) != 4 {
		t.Fatalf("%d decisions, %d slot reports", len(seq), len(rep.Slots))
	}
	if !rep.Clean() {
		t.Fatalf("healthy run not clean: %v", rep)
	}
	for _, s := range rep.Slots {
		if s.Status != SlotOK || s.Rung != RungWarm || s.Err != nil {
			t.Fatalf("slot %d: %+v", s.Slot, s)
		}
	}
}

// TestP2LadderRestartCenterRecovers injects one transient fault of each
// kind into the warm rung: the ladder must climb past it and commit a
// feasible decision from restart-center.
func TestP2LadderRestartCenterRecovers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plan  *resilience.FaultPlan
		class resilience.FailureClass
	}{
		{"nan", &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 0, MaxTrips: 1}, resilience.ClassNonFinite},
		{"factorization", &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0, MaxTrips: 1}, resilience.ClassFactorization},
		{"panic", &resilience.FaultPlan{Panic: true, PanicAt: 0, MaxTrips: 1}, resilience.ClassPanic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := oneByOne(t, 5, 5, 1)
			in := inputsFor([]float64{4}, []float64{1})
			opts := DefaultOptions()
			opts.Solver.Fault = tc.plan
			dec, rep, err := SolveP2Resilient(n, in, 0, model.NewZeroDecision(n), opts)
			if err != nil {
				t.Fatalf("SolveP2Resilient: %v", err)
			}
			if rep.Rung != RungRestartCenter || !rep.Recovered() {
				t.Fatalf("rung = %q, want %q: %v", rep.Rung, RungRestartCenter, rep)
			}
			se, ok := resilience.AsSolveError(rep.Attempts[0].Err)
			if !ok || se.Class != tc.class {
				t.Fatalf("first attempt error: %v, want class %v", rep.Attempts[0].Err, tc.class)
			}
			if ok, v := dec.FeasibleAt(n, in.Workload[0], 1e-4); !ok {
				t.Fatalf("recovered decision infeasible by %v", v)
			}
		})
	}
}

func TestP2LadderLooseTolRecovers(t *testing.T) {
	n := oneByOne(t, 5, 5, 1)
	in := inputsFor([]float64{4}, []float64{1})
	opts := DefaultOptions()
	opts.Solver.Fault = &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 0, MaxTrips: 2}
	dec, rep, err := SolveP2Resilient(n, in, 0, model.NewZeroDecision(n), opts)
	if err != nil {
		t.Fatalf("SolveP2Resilient: %v", err)
	}
	if rep.Rung != RungLooseTol {
		t.Fatalf("rung = %q, want %q: %v", rep.Rung, RungLooseTol, rep)
	}
	if ok, v := dec.FeasibleAt(n, in.Workload[0], 1e-4); !ok {
		t.Fatalf("recovered decision infeasible by %v", v)
	}
}

func TestOnlineUnrecoverableSlotDegrades(t *testing.T) {
	// Three fault trips: exactly the three ladder rungs of slot 0. The run
	// must complete end-to-end with slot 0 carried forward and later slots
	// solved normally.
	n := oneByOne(t, 5, 5, 1)
	in := inputsFor([]float64{5, 2, 7}, []float64{1, 1, 1})
	opts := DefaultOptions()
	opts.Solver.Fault = &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 0, MaxTrips: 3}
	seq, rep, err := RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatalf("degraded run aborted: %v", err)
	}
	if got := rep.Degraded(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("degraded slots = %v, want [0]: %v", got, rep)
	}
	s0 := rep.Slots[0]
	if s0.Status != SlotDegraded || s0.Err == nil || s0.Rung == "" {
		t.Fatalf("slot 0 report: %+v", s0)
	}
	for ts := 1; ts < 3; ts++ {
		if rep.Slots[ts].Status != SlotOK {
			t.Fatalf("slot %d status %v after trips exhausted", ts, rep.Slots[ts].Status)
		}
	}
	for ts, d := range seq {
		if ok, v := d.FeasibleAt(n, in.Workload[ts], 1e-4); !ok {
			t.Fatalf("slot %d infeasible by %v", ts, v)
		}
	}
}

func TestOnlineEverySlotDegradedStillCompletes(t *testing.T) {
	// A persistent fault defeats every solver attempt at every slot; the run
	// must still deliver a feasible decision per slot, all marked degraded.
	n := oneByOne(t, 5, 5, 1)
	in := inputsFor([]float64{5, 2, 7}, []float64{1, 1, 1})
	opts := DefaultOptions()
	opts.Solver.Fault = &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 0}
	seq, rep, err := RunOnlineReport(n, in, opts)
	if err != nil {
		t.Fatalf("fully degraded run aborted: %v", err)
	}
	if got := rep.Degraded(); len(got) != 3 {
		t.Fatalf("degraded slots = %v, want all 3", got)
	}
	if rep.Clean() {
		t.Fatal("degraded run reported clean")
	}
	for ts, d := range seq {
		if ok, v := d.FeasibleAt(n, in.Workload[ts], 1e-4); !ok {
			t.Fatalf("slot %d infeasible by %v", ts, v)
		}
	}
}

func TestOnlineCanceledContextAborts(t *testing.T) {
	// Cancellation must abort the run, never be papered over by degradation.
	n := oneByOne(t, 5, 5, 1)
	in := inputsFor([]float64{5, 2}, []float64{1, 1})
	opts := DefaultOptions()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Solver.Ctx = ctx
	_, _, err := RunOnlineReport(n, in, opts)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if !resilience.IsCanceled(err) {
		t.Fatalf("cancellation lost its class: %v", err)
	}
}

func TestCarryForwardTactics(t *testing.T) {
	n := oneByOne(t, 5, 5, 1)
	in := inputsFor([]float64{4, 2}, []float64{1, 1})
	opts := DefaultOptions()

	// An already-feasible previous decision is cloned as-is.
	feasible := model.SpreadDecision(n, in.Workload[0])
	dec, tactic, _, err := carryForward(n, in, 0, feasible, opts, nil)
	if err != nil || tactic != DegradeCarry {
		t.Fatalf("tactic %q err %v, want %q", tactic, err, DegradeCarry)
	}
	dec.X[0] = -1 // must not alias the carried state
	if feasible.X[0] < 0 {
		t.Fatal("carryForward returned the previous decision without cloning")
	}

	// A zero previous decision under positive workload needs the repair LP.
	dec, tactic, _, err = carryForward(n, in, 0, model.NewZeroDecision(n), opts, nil)
	if err != nil {
		t.Fatalf("carryForward: %v", err)
	}
	if tactic != DegradeProject {
		t.Fatalf("tactic = %q, want %q", tactic, DegradeProject)
	}
	if ok, v := dec.FeasibleAt(n, in.Workload[0], 1e-6); !ok {
		t.Fatalf("projected decision infeasible by %v", v)
	}
}

func TestSlotStatusAndReportStrings(t *testing.T) {
	for s, want := range map[SlotStatus]string{
		SlotOK: "ok", SlotRecovered: "recovered", SlotDegraded: "degraded", SlotStatus(9): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	r := &Report{Slots: []SlotReport{
		{Slot: 0, Status: SlotOK},
		{Slot: 1, Status: SlotRecovered},
		{Slot: 2, Status: SlotDegraded},
	}}
	if r.Clean() || len(r.Recovered()) != 1 || len(r.Degraded()) != 1 {
		t.Fatalf("report helpers: %v", r)
	}
	if r.String() == "" || (&Report{}).String() == "" {
		t.Fatal("empty report strings")
	}
}
