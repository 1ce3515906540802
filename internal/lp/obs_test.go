package lp

import (
	"testing"

	"soral/internal/obs"
	"soral/internal/obs/obstest"
	"soral/internal/resilience"
)

// TestMehrotraEmitsIterations checks the iteration instrumentation: one iter
// event per Mehrotra iteration, carrying finite residuals, with the counters
// in lockstep.
func TestMehrotraEmitsIterations(t *testing.T) {
	p := NewProblem(2)
	p.C = []float64{1, 2}
	p.AddConstraint([]Entry{{Index: 0, Val: 1}, {Index: 1, Val: 1}}, GE, 1, "cover")

	sc, rec := obstest.NewScope()
	sol, err := Solve(p, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	iters := rec.Kind(obs.KindIter)
	if len(iters) == 0 {
		t.Fatal("no iter events emitted")
	}
	for _, e := range iters {
		if e.Name != "lp.mehrotra" {
			t.Fatalf("unexpected iter name %q", e.Name)
		}
	}
	// Mehrotra records the iteration event before a possible optimal exit,
	// so the event count matches the counters and Solution.Iters exactly:
	// the converging iteration counts as one that ran.
	if got := rec.Counter("lp.mehrotra.iterations"); got != int64(len(iters)) {
		t.Fatalf("lp.mehrotra.iterations = %d, %d events", got, len(iters))
	}
	if got := rec.Counter(obs.MetricSolverIters); got != int64(len(iters)) {
		t.Fatalf("%s = %d, %d events", obs.MetricSolverIters, got, len(iters))
	}
	if sol.Iters != len(iters) {
		t.Fatalf("%d iter events, solution reports %d iterations", len(iters), sol.Iters)
	}
}

// TestMehrotraFailureItersMatchEvents checks a failure exit that comes after
// the iteration event: a factorization failure at iteration k reports k+1
// iterations, one per iter event emitted.
func TestMehrotraFailureItersMatchEvents(t *testing.T) {
	sc, rec := obstest.NewScope()
	fault := &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 2}
	_, err := Solve(transport(), Options{Obs: sc, Fault: fault})
	se, ok := resilience.AsSolveError(err)
	if !ok || se.Class != resilience.ClassFactorization {
		t.Fatalf("err = %v, want a factorization failure", err)
	}
	if events := len(rec.Kind(obs.KindIter)); se.Iters != events || events != 3 {
		t.Fatalf("failure reports %d iterations after %d iter events, want 3", se.Iters, events)
	}
}
