package lp

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

// transport builds the small transportation LP used as the resilience
// workhorse: optimum 8 (see TestIPMTransportation).
func transport() *Problem {
	p := NewProblem(4)
	p.C = []float64{1, 3, 2, 1}
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 5, "s1")
	p.AddConstraint([]Entry{{2, 1}, {3, 1}}, LE, 5, "s2")
	p.AddConstraint([]Entry{{0, 1}, {2, 1}}, GE, 4, "d1")
	p.AddConstraint([]Entry{{1, 1}, {3, 1}}, GE, 4, "d2")
	return p
}

func TestResilientCleanSolveUsesFirstRung(t *testing.T) {
	sol, rep, err := SolveResilient(transport(), Options{})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	if rep.Rung != RungIPM || rep.Recovered() {
		t.Fatalf("clean solve climbed the ladder: %v", rep)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-8) > 1e-5 {
		t.Fatalf("status %v obj %v", sol.Status, sol.Obj)
	}
}

func TestResilientRescaleRecoversFactorizationFault(t *testing.T) {
	fault := &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0, MaxTrips: 1}
	sol, rep, err := SolveResilient(transport(), Options{Fault: fault})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	if rep.Rung != RungRescale || !rep.Recovered() {
		t.Fatalf("rung = %q, want %q; report: %v", rep.Rung, RungRescale, rep)
	}
	if math.Abs(sol.Obj-8) > 1e-4 {
		t.Fatalf("recovered obj = %v, want 8", sol.Obj)
	}
	se, ok := resilience.AsSolveError(rep.Attempts[0].Err)
	if !ok || se.Class != resilience.ClassFactorization || !errors.Is(se, resilience.ErrInjected) {
		t.Fatalf("first attempt error: %v", rep.Attempts[0].Err)
	}
}

func TestResilientLooseTolRecoversAfterTwoFaults(t *testing.T) {
	// Two trips: the plain and the rescaled IPM solves both hit the injected
	// factorization failure; the third (loose-tol) solve runs fault-free.
	fault := &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0, MaxTrips: 2}
	sol, rep, err := SolveResilient(transport(), Options{Fault: fault})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	if rep.Rung != RungLooseTol {
		t.Fatalf("rung = %q, want %q; report: %v", rep.Rung, RungLooseTol, rep)
	}
	if math.Abs(sol.Obj-8) > 1e-3 {
		t.Fatalf("loose-tol obj = %v, want 8", sol.Obj)
	}
}

func TestResilientSimplexRescuesPersistentFault(t *testing.T) {
	// MaxTrips = 0: the fault fires on every IPM attempt, so only the
	// simplex rung — which shares none of the interior-point machinery —
	// can produce an answer.
	fault := &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0}
	sol, rep, err := SolveResilient(transport(), Options{Fault: fault})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	if rep.Rung != RungSimplex {
		t.Fatalf("rung = %q, want %q; report: %v", rep.Rung, RungSimplex, rep)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-8) > 1e-8 {
		t.Fatalf("simplex rescue: status %v obj %v", sol.Status, sol.Obj)
	}
	if fault.Trips() < 3 {
		t.Fatalf("expected at least 3 fault trips, got %d", fault.Trips())
	}
}

func TestResilientNaNFaultRecovered(t *testing.T) {
	fault := &resilience.FaultPlan{InjectNaN: true, InjectNaNAt: 1, MaxTrips: 1}
	sol, rep, err := SolveResilient(transport(), Options{Fault: fault})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	if !rep.Recovered() {
		t.Fatalf("NaN fault did not climb the ladder: %v", rep)
	}
	se, ok := resilience.AsSolveError(rep.Attempts[0].Err)
	if !ok || se.Class != resilience.ClassNonFinite {
		t.Fatalf("first attempt error: %v", rep.Attempts[0].Err)
	}
	if math.Abs(sol.Obj-8) > 1e-4 {
		t.Fatalf("recovered obj = %v", sol.Obj)
	}
}

func TestResilientPanicFaultRecovered(t *testing.T) {
	fault := &resilience.FaultPlan{Panic: true, PanicAt: 1, MaxTrips: 1}
	sol, rep, err := SolveResilient(transport(), Options{Fault: fault})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	if !rep.Recovered() {
		t.Fatalf("panic did not climb the ladder: %v", rep)
	}
	se, ok := resilience.AsSolveError(rep.Attempts[0].Err)
	if !ok || se.Class != resilience.ClassPanic {
		t.Fatalf("first attempt error: %v", rep.Attempts[0].Err)
	}
	if math.Abs(sol.Obj-8) > 1e-4 {
		t.Fatalf("recovered obj = %v", sol.Obj)
	}
}

func TestIterationLimitSurfacesResiduals(t *testing.T) {
	fault := &resilience.FaultPlan{ExhaustAfter: 2}
	sol, err := Solve(transport(), Options{Fault: fault})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != IterationLimit || sol.Iters != 2 {
		t.Fatalf("status %v iters %d, want iteration-limit after 2", sol.Status, sol.Iters)
	}
	r := sol.Residuals
	if r.Primal == 0 && r.Dual == 0 && r.Gap == 0 {
		t.Fatal("iteration-limit exit left residuals unpopulated")
	}
	if r.Below(1e-8) {
		t.Fatalf("2 iterations cannot have converged: %+v", r)
	}
}

func TestResilientAcceptsNearOptimalIterationLimit(t *testing.T) {
	// Find the iteration at which the IPM crosses a 1e-6 tolerance, then cap
	// MaxIter exactly there with a tighter Tol: every IPM rung exhausts its
	// budget, but the final iterate is already below 1e-6 on all residuals,
	// so the accept-iteration-limit rung adopts it.
	k := acceptLimitBudget(t)
	sol, rep, err := SolveResilient(transport(), Options{Tol: 1e-9, MaxIter: k})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	if rep.Rung != RungAcceptLimit {
		t.Fatalf("rung = %q, want %q; report: %v", rep.Rung, RungAcceptLimit, rep)
	}
	if sol.Status != Optimal || !sol.Residuals.Below(1e-6) {
		t.Fatalf("accepted iterate: status %v residuals %+v", sol.Status, sol.Residuals)
	}
	if math.Abs(sol.Obj-8) > 1e-4 {
		t.Fatalf("accepted obj = %v, want 8", sol.Obj)
	}
}

// acceptLimitBudget returns the iteration budget at which the transport
// LP's final iterate is below 1e-6 on every residual: ref.Iters counts the
// converging iteration of a 1e-6 solve, whose residual check reads the
// iterate the ref.Iters-1 iterations before it left.
func acceptLimitBudget(t *testing.T) int {
	t.Helper()
	ref, err := Solve(transport(), Options{Tol: 1e-6})
	if err != nil || ref.Status != Optimal {
		t.Fatalf("reference solve: status %v err %v", ref.Status, err)
	}
	k := ref.Iters - 1
	if k < 2 {
		t.Fatalf("reference converged suspiciously fast (%d iters)", ref.Iters)
	}
	return k
}

// TestAcceptLimitAttemptIterations checks the iterations the accept-limit
// ladder reports, with and without a scope: each attempt carries what its
// solve ran, so the attempts sum to the solver.iterations counter, and
// accepting an earlier rung's iterate runs none.
func TestAcceptLimitAttemptIterations(t *testing.T) {
	k := acceptLimitBudget(t)
	sc, rec := obstest.NewScope()
	var reps []*resilience.LadderReport
	for _, o := range []*obs.Scope{nil, sc} {
		_, rep, err := SolveResilient(transport(), Options{Tol: 1e-9, MaxIter: k, Obs: o})
		if err != nil || rep.Rung != RungAcceptLimit {
			t.Fatalf("rung %q err %v, want %q", rep.Rung, err, RungAcceptLimit)
		}
		if a := rep.Attempts[len(rep.Attempts)-1]; a.Iterations != 0 {
			t.Fatalf("accept-limit attempt reports %d iterations, want 0", a.Iterations)
		}
		reps = append(reps, rep)
	}
	plain, scoped := reps[0], reps[1]
	for i, a := range plain.Attempts {
		if got := scoped.Attempts[i].Iterations; got != a.Iterations {
			t.Fatalf("attempt %s: %d iterations with a scope, %d without", a.Rung, got, a.Iterations)
		}
	}
	if sum, counter := plain.Iterations(), rec.Counter(obs.MetricSolverIters); int64(sum) != counter {
		t.Fatalf("attempt iterations sum to %d, %s counter reads %d; report: %v", sum, obs.MetricSolverIters, counter, plain)
	}
}

// TestPanicAttemptIterations checks that a panicking solve still reports
// the iterations it ran: with the panic at iteration 3, the first attempt
// ran iterations 0–2, so it reports 3, and the attempts sum to the
// solver.iterations counter, which counts every iteration event.
func TestPanicAttemptIterations(t *testing.T) {
	sc, rec := obstest.NewScope()
	fault := &resilience.FaultPlan{Panic: true, PanicAt: 3, MaxTrips: 1}
	_, rep, err := SolveResilient(transport(), Options{Fault: fault, Obs: sc})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	first := rep.Attempts[0]
	if se, ok := resilience.AsSolveError(first.Err); !ok || se.Class != resilience.ClassPanic {
		t.Fatalf("first attempt error: %v", first.Err)
	}
	if first.Iterations != 3 {
		t.Fatalf("panicking attempt reports %d iterations, want 3", first.Iterations)
	}
	if sum, counter := rep.Iterations(), rec.Counter(obs.MetricSolverIters); int64(sum) != counter {
		t.Fatalf("attempt iterations sum to %d, %s counter reads %d; report: %v", sum, obs.MetricSolverIters, counter, rep)
	}
}

func TestSolveCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(transport(), Options{Ctx: ctx})
	se, ok := resilience.AsSolveError(err)
	if !ok || se.Class != resilience.ClassCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve returned %v", err)
	}
}

func TestSolveExpiredDeadlineMidIteration(t *testing.T) {
	// The deadline expires during the solve, not before the first iteration:
	// the per-iteration check must abort with a typed error.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(100*time.Microsecond))
	defer cancel()
	var err error
	for {
		_, err = Solve(transport(), Options{Ctx: ctx})
		if err != nil {
			break
		}
	}
	se, ok := resilience.AsSolveError(err)
	if !ok || se.Class != resilience.ClassCanceled || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-expired solve returned %v", err)
	}
}

func TestResilientLadderAbortsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := SolveResilient(transport(), Options{Ctx: ctx})
	se, ok := resilience.AsSolveError(err)
	if !ok || se.Class != resilience.ClassCanceled {
		t.Fatalf("err = %v", err)
	}
	if len(rep.Attempts) != 1 {
		t.Fatalf("canceled ladder kept retrying: %v", rep)
	}
}

func TestEquilibrateSolvesBadlyScaledLP(t *testing.T) {
	// Same geometry as the transportation LP but with one constraint scaled
	// by 1e8 and one column by 1e-6: equilibration must recover the original
	// optimum in the original units.
	p := NewProblem(4)
	colScale := []float64{1, 1e-6, 1, 1}
	p.C = []float64{1, 3 / colScale[1], 2, 1}
	add := func(es []Entry, sense Sense, rhs float64, rowScale float64) {
		for k := range es {
			es[k].Val = es[k].Val * rowScale / colScale[es[k].Index]
		}
		p.AddConstraint(es, sense, rhs*rowScale, "")
	}
	add([]Entry{{0, 1}, {1, 1}}, LE, 5, 1e8)
	add([]Entry{{2, 1}, {3, 1}}, LE, 5, 1)
	add([]Entry{{0, 1}, {2, 1}}, GE, 4, 1)
	add([]Entry{{1, 1}, {3, 1}}, GE, 4, 1)

	eq, err := equilibrate(p)
	if err != nil {
		t.Fatalf("equilibrate: %v", err)
	}
	ratio := func(q *Problem) float64 {
		lo, hi := math.Inf(1), 0.0
		for _, con := range q.Cons {
			for _, e := range con.Entries {
				a := math.Abs(e.Val)
				lo, hi = math.Min(lo, a), math.Max(hi, a)
			}
		}
		return hi / lo
	}
	// One Ruiz pass takes the square root of the dynamic range; require at
	// least that much improvement.
	if before, after := ratio(p), ratio(eq.prob); after > math.Sqrt(before)*10 {
		t.Fatalf("equilibration barely helped: entry range %g → %g", before, after)
	}
	scaled, err := Solve(eq.prob, Options{})
	if err != nil || scaled.Status != Optimal {
		t.Fatalf("scaled solve: status %v err %v", scaled.Status, err)
	}
	rec := eq.recover(p, scaled)
	if v := p.MaxViolation(rec.X); v > 1e-3 {
		t.Fatalf("recovered solution violates original constraints by %v", v)
	}
	if math.Abs(rec.Obj-8) > 1e-3 {
		t.Fatalf("recovered obj = %v, want 8", rec.Obj)
	}
}

func TestResilientReportStringMentionsRung(t *testing.T) {
	_, rep, err := SolveResilient(transport(), Options{
		Fault: &resilience.FaultPlan{FailFactorization: true, FailFactorizationAt: 0, MaxTrips: 1},
	})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
	}
	s := rep.String()
	if s == "" {
		t.Fatal("empty ladder report string")
	}
}
