package convex

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"soral/internal/obs"
	"soral/internal/obs/obstest"
	"soral/internal/resilience"
)

// quadBox returns the (x−3)² box problem with a strictly interior start, so
// the solve loop — and only it — is exercised by injected faults.
func quadBox() (*Problem, []float64) {
	g, h := boxConstraints([]float64{0}, []float64{10})
	return &Problem{Obj: &QuadObjective{DiagQ: []float64{2}, C: []float64{-6}}, G: g, H: h}, []float64{5}
}

// loops are the solve loops the fault tests run, each with the stage its
// errors carry: the barrier and the primal–dual loop from quadBox's
// interior start, and the primal–dual loop from a start outside the box,
// which Solve hands it.
var loops = []struct {
	name, stage string
	solve       func(*Problem, []float64, Options) (*Result, error)
}{
	{"barrier", "convex.barrier", Solve},
	{"primal-dual", pdStage, func(p *Problem, x0 []float64, opts Options) (*Result, error) {
		return SolvePrimalDual(p, x0, nil, opts)
	}},
	{"infeasible-start", pdStage, func(p *Problem, _ []float64, opts Options) (*Result, error) {
		return Solve(p, []float64{12}, opts)
	}},
}

// forLoops runs test once per solve loop, as a subtest named after it.
func forLoops(t *testing.T, test func(t *testing.T, stage string, solve func(*Problem, []float64, Options) (*Result, error))) {
	for _, l := range loops {
		t.Run(l.name, func(t *testing.T) { test(t, l.stage, l.solve) })
	}
}

func TestBarrierNaNInjection(t *testing.T) {
	forLoops(t, func(t *testing.T, stage string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		_, err := solve(p, x0, Options{Fault: &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 1}})
		se, ok := resilience.AsSolveError(err)
		if !ok || se.Class != resilience.ClassNonFinite {
			t.Fatalf("err = %v, want non-finite SolveError", err)
		}
		if se.Stage != stage || se.Iters < 1 {
			t.Fatalf("stage %q iters %d", se.Stage, se.Iters)
		}
	})
}

func TestBarrierForcedFactorizationFailure(t *testing.T) {
	forLoops(t, func(t *testing.T, _ string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		_, err := solve(p, x0, Options{Fault: &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0}})
		se, ok := resilience.AsSolveError(err)
		if !ok || se.Class != resilience.ClassFactorization || !errors.Is(err, resilience.ErrInjected) {
			t.Fatalf("err = %v, want injected factorization SolveError", err)
		}
	})
}

func TestBarrierInjectedBudgetExhaustion(t *testing.T) {
	forLoops(t, func(t *testing.T, _ string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		_, err := solve(p, x0, Options{Fault: &resilience.FaultPlan{ExhaustAfter: 2}})
		se, ok := resilience.AsSolveError(err)
		if !ok || se.Class != resilience.ClassIterationLimit || !errors.Is(err, resilience.ErrInjected) {
			t.Fatalf("err = %v, want injected iteration-limit SolveError", err)
		}
	})
}

func TestBarrierPanicConversion(t *testing.T) {
	forLoops(t, func(t *testing.T, _ string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		res, err := solve(p, x0, Options{Fault: &resilience.FaultPlan{Panic: true, PanicAt: 0}})
		if res != nil {
			t.Fatalf("panicked solve returned a result: %+v", res)
		}
		se, ok := resilience.AsSolveError(err)
		if !ok || se.Class != resilience.ClassPanic {
			t.Fatalf("err = %v, want panic SolveError", err)
		}
	})
}

// TestPanicCarriesIterations checks that a solve panicking at iteration 2
// reports the 2 iterations it ran, one per convex.newton iteration event.
func TestPanicCarriesIterations(t *testing.T) {
	forLoops(t, func(t *testing.T, _ string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		sc, rec := obstest.NewScope()
		_, err := solve(p, x0, Options{Obs: sc, Fault: &resilience.FaultPlan{Panic: true, PanicAt: 2}})
		se, ok := resilience.AsSolveError(err)
		if !ok || se.Class != resilience.ClassPanic {
			t.Fatalf("err = %v, want panic SolveError", err)
		}
		if events := rec.Counter(obs.MetricSolverIters); se.Iters != 2 || int64(se.Iters) != events {
			t.Fatalf("panic SolveError carries %d iterations after %d iteration events, want 2", se.Iters, events)
		}
	})
}

func TestBarrierRetrySucceedsAfterTripBudget(t *testing.T) {
	// MaxTrips = 1: the first solve absorbs the fault, a retry with the same
	// plan must run clean — the contract the fallback ladder depends on.
	forLoops(t, func(t *testing.T, _ string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		fault := &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 0, MaxTrips: 1}
		if _, err := solve(p, x0, Options{Fault: fault}); err == nil {
			t.Fatal("first attempt did not fail")
		}
		res, err := solve(p, x0, Options{Fault: fault})
		if err != nil || !res.Converged {
			t.Fatalf("retry after trip budget: err %v", err)
		}
		if math.Abs(res.X[0]-3) > 1e-4 {
			t.Fatalf("retry x = %v, want 3", res.X[0])
		}
	})
}

func TestBarrierCanceledContext(t *testing.T) {
	forLoops(t, func(t *testing.T, _ string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := solve(p, x0, Options{Ctx: ctx})
		se, ok := resilience.AsSolveError(err)
		if !ok || se.Class != resilience.ClassCanceled || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want canceled SolveError", err)
		}
	})
}

func TestBarrierDeadlineMidIteration(t *testing.T) {
	forLoops(t, func(t *testing.T, _ string, solve func(*Problem, []float64, Options) (*Result, error)) {
		p, x0 := quadBox()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(50*time.Microsecond))
		defer cancel()
		var err error
		for {
			_, err = solve(p, x0, Options{Ctx: ctx})
			if err != nil {
				break
			}
		}
		se, ok := resilience.AsSolveError(err)
		if !ok || se.Class != resilience.ClassCanceled || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline-exceeded SolveError", err)
		}
	})
}
