package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestSolveErrorWrapsAndClassifies(t *testing.T) {
	cause := errors.New("pivot went negative")
	err := error(&SolveError{
		Stage: "lp.mehrotra", Class: ClassFactorization, Iters: 7,
		Residuals: Residuals{Primal: 1e-3, Dual: 2e-4, Gap: 5e-5},
		CondEst:   1e12, Err: cause,
	})
	if !errors.Is(err, cause) {
		t.Fatal("SolveError does not unwrap to its cause")
	}
	se, ok := AsSolveError(fmt.Errorf("outer: %w", err))
	if !ok || se.Class != ClassFactorization || se.Iters != 7 {
		t.Fatalf("AsSolveError through a wrap: %+v ok=%v", se, ok)
	}
	if !IsSolveFailure(err) {
		t.Fatal("IsSolveFailure(false) on a SolveError")
	}
	if IsSolveFailure(errors.New("plain modeling error")) {
		t.Fatal("plain error misclassified as solve failure")
	}
	msg := err.Error()
	for _, want := range []string{"lp.mehrotra", "factorization", "7 iterations", "pinf"} {
		if !contains(msg, want) {
			t.Fatalf("error message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestResidualsBelow(t *testing.T) {
	r := Residuals{Primal: 1e-8, Dual: 1e-8, Gap: 1e-8}
	if !r.Below(1e-6) {
		t.Fatal("small residuals not below 1e-6")
	}
	if (Residuals{Primal: 1e-3}).Below(1e-6) {
		t.Fatal("large primal residual passed Below")
	}
}

func TestClimbStopsAtFirstSuccess(t *testing.T) {
	calls := 0
	v, rep, err := ClimbObs("test", nil, []Rung[int]{
		{Name: "a", Run: func() (int, int, error) { calls++; return 0, 3, errors.New("a failed") }},
		{Name: "b", Run: func() (int, int, error) { calls++; return 42, 5, nil }},
		{Name: "c", Run: func() (int, int, error) { calls++; return 0, 7, errors.New("never reached") }},
	})
	if err != nil || v != 42 || calls != 2 {
		t.Fatalf("v=%d calls=%d err=%v", v, calls, err)
	}
	if rep.Rung != "b" || !rep.Recovered() || rep.Failed() {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Attempts) != 2 || rep.Attempts[0].Err == nil || rep.Attempts[1].Err != nil {
		t.Fatalf("attempts: %+v", rep.Attempts)
	}
	// Each attempt carries the iterations its rung returned, with no scope.
	if rep.Attempts[0].Iterations != 3 || rep.Attempts[1].Iterations != 5 || rep.Iterations() != 8 {
		t.Fatalf("attempt iterations %d+%d = %d, want 3+5 = 8",
			rep.Attempts[0].Iterations, rep.Attempts[1].Iterations, rep.Iterations())
	}
}

func TestClimbTotalFailure(t *testing.T) {
	last := errors.New("terminal")
	_, rep, err := ClimbObs("test", nil, []Rung[int]{
		{Name: "a", Run: func() (int, int, error) { return 0, 0, errors.New("first") }},
		{Name: "b", Run: func() (int, int, error) { return 0, 0, last }},
	})
	if err == nil || !errors.Is(err, last) {
		t.Fatalf("err = %v, want wrap of last cause", err)
	}
	if !rep.Failed() || rep.Recovered() {
		t.Fatalf("report: %+v", rep)
	}
}

func TestClimbAbortsOnCancellation(t *testing.T) {
	calls := 0
	_, rep, err := ClimbObs("test", nil, []Rung[int]{
		{Name: "a", Run: func() (int, int, error) {
			calls++
			return 0, 0, &SolveError{Stage: "x", Class: ClassCanceled, Err: context.DeadlineExceeded}
		}},
		{Name: "b", Run: func() (int, int, error) { calls++; return 1, 0, nil }},
	})
	if err == nil || calls != 1 || len(rep.Attempts) != 1 {
		t.Fatalf("canceled ladder kept climbing: calls=%d err=%v", calls, err)
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	mk := func() *FaultPlan {
		return &FaultPlan{FailFactorization: true, FailFactorizationAt: 3, FailProb: 0.5, Seed: 7}
	}
	a, b := mk(), mk()
	for iter := 0; iter < 10; iter++ {
		if a.FactorizationShouldFail(iter) != b.FactorizationShouldFail(iter) {
			t.Fatalf("nondeterministic fault decision at iter %d", iter)
		}
	}
}

func TestFaultPlanMaxTrips(t *testing.T) {
	f := &FaultPlan{InjectNaN: true, InjectNaNAt: 0, MaxTrips: 2}
	fired := 0
	for k := 0; k < 5; k++ {
		if f.NaNShouldInject(0) {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want MaxTrips=2", fired)
	}
	if f.Trips() < 2 {
		t.Fatalf("Trips() = %d", f.Trips())
	}
}

func TestFaultPlanBudgetAndNil(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.Budget(100) != 100 || nilPlan.FactorizationShouldFail(0) || nilPlan.NaNShouldInject(0) {
		t.Fatal("nil plan injected a fault")
	}
	nilPlan.MaybePanic(0) // must not panic
	f := &FaultPlan{ExhaustAfter: 5, MaxTrips: 1}
	if got := f.Budget(100); got != 5 {
		t.Fatalf("first Budget = %d, want 5", got)
	}
	if got := f.Budget(100); got != 100 {
		t.Fatalf("second Budget = %d, want full 100 after trips spent", got)
	}
}

func TestFaultPlanPanics(t *testing.T) {
	f := &FaultPlan{Panic: true, PanicAt: 2}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("MaybePanic did not panic at the armed iteration")
		}
	}()
	f.MaybePanic(1) // not armed here
	f.MaybePanic(2)
}

func TestInterrupted(t *testing.T) {
	if err := Interrupted(nil, "s", 0); err != nil {
		t.Fatalf("nil ctx interrupted: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := Interrupted(ctx, "s", 0); err != nil {
		t.Fatalf("live ctx interrupted: %v", err)
	}
	cancel()
	err := Interrupted(ctx, "stage", 4)
	se, ok := AsSolveError(err)
	if !ok || se.Class != ClassCanceled || se.Iters != 4 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation error: %v", err)
	}
}

func TestFromPanic(t *testing.T) {
	se := FromPanic("convex.barrier", 3, "index out of range")
	if se.Class != ClassPanic || se.Stage != "convex.barrier" || se.Iters != 3 || se.Err == nil {
		t.Fatalf("FromPanic: %+v", se)
	}
	cause := errors.New("boom")
	if !errors.Is(FromPanic("s", 0, cause), cause) {
		t.Fatal("FromPanic lost an error-typed panic value")
	}
}
