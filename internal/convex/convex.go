// Package convex implements a log-barrier interior-point solver for smooth
// convex objectives under sparse linear inequality constraints G·x ≤ h.
//
// This is the engine behind the paper's regularized subproblem P2(t), whose
// objective mixes linear allocation costs with the entropic regularizer
// (u+ε)·ln((u+ε)/(uprev+ε)) − u. The solver only needs the objective's value,
// gradient, and Hessian through the Objective interface, so the same engine
// also solves quadratic programs and plain LPs (used for cross-checks
// against package lp).
//
// A strictly feasible starting point is computed with a phase-I linear
// program when the caller does not supply one.
package convex

import (
	"context"
	"errors"
	"fmt"
	"math"

	"soral/internal/linalg"
	"soral/internal/lp"
	"soral/internal/obs"
	"soral/internal/resilience"
)

// Objective is a smooth convex function of x.
type Objective interface {
	// Value returns f(x).
	Value(x []float64) float64
	// Gradient writes ∇f(x) into grad.
	Gradient(grad, x []float64)
	// Hessian writes ∇²f(x) into hess, overwriting its contents.
	Hessian(hess *linalg.Dense, x []float64)
}

// Problem is: minimize Obj(x) subject to G·x ≤ H.
type Problem struct {
	Obj Objective
	G   *lp.SparseMatrix
	H   []float64
}

// Options tunes the barrier method.
type Options struct {
	Tol       float64 // duality-gap tolerance (default 1e-7)
	TInit     float64 // initial barrier weight (default 1)
	Mu        float64 // barrier growth factor (default 20)
	MaxNewton int     // Newton iterations per centering step (default 80)
	MaxOuter  int     // barrier stages (default 60)

	// Ctx, when non-nil, is checked at every Newton iteration; an expired
	// deadline or cancellation aborts the solve with a typed
	// resilience.SolveError (class ClassCanceled).
	Ctx context.Context

	// Fault, when non-nil, injects deterministic failures for resilience
	// testing (see resilience.FaultPlan). Production callers leave it nil.
	Fault *resilience.FaultPlan

	// Obs, when non-nil, receives one iteration event per Newton step (barrier
	// stage, squared decrement, accepted step size). A nil scope costs one
	// branch per iteration.
	Obs *obs.Scope

	// Workers bounds the goroutines of the Newton-system Cholesky
	// factorization, matching lp.Options.Workers semantics (≤ 0 means
	// GOMAXPROCS, 1 means serial). Results are bit-identical for every
	// worker count (DESIGN.md §8).
	Workers int

	// Work, when non-nil, supplies reusable solver buffers so repeated
	// solves of same-shaped problems allocate nothing per Newton iteration
	// (see Workspace). A workspace must not be shared by concurrent solves.
	Work *Workspace
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.TInit <= 0 {
		o.TInit = 1
	}
	if o.Mu <= 1 {
		o.Mu = 20
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 80
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 60
	}
	return o
}

// Result is the outcome of a solve.
type Result struct {
	X           []float64
	Obj         float64
	Duals       []float64 // one multiplier estimate per constraint row
	NewtonIters int
	Converged   bool
}

// ErrInfeasible indicates phase I could not find a strictly feasible point.
var ErrInfeasible = errors.New("convex: no strictly feasible point")

// FindStrictlyFeasible solves the phase-I LP
//
//	minimize s  subject to  G·x − s·1 ≤ h,  x free, s free
//
// and returns an x with G·x < h when one exists.
func FindStrictlyFeasible(g *lp.SparseMatrix, h []float64) ([]float64, error) {
	n := g.N
	p := lp.NewProblem(n + 1)
	for i := 0; i < n; i++ {
		p.Lo[i] = math.Inf(-1)
	}
	p.Lo[n] = math.Inf(-1)
	p.C[n] = 1
	for r, row := range g.Rows {
		entries := make([]lp.Entry, 0, len(row)+1)
		entries = append(entries, row...)
		entries = append(entries, lp.Entry{Index: n, Val: -1})
		p.AddConstraint(entries, lp.LE, h[r], "")
	}
	sol, err := lp.Solve(p, lp.Options{Tol: 1e-9})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal && sol.Status != lp.Unbounded {
		return nil, fmt.Errorf("%w (phase-I status %v)", ErrInfeasible, sol.Status)
	}
	x := sol.X[:n]
	// Verify strictness.
	slackMin := math.Inf(1)
	gx := make([]float64, g.M)
	g.MulVec(gx, x)
	for r := range gx {
		if s := h[r] - gx[r]; s < slackMin {
			slackMin = s
		}
	}
	if slackMin <= 0 {
		return nil, fmt.Errorf("%w (best slack %g)", ErrInfeasible, slackMin)
	}
	return linalg.Clone(x), nil
}

// Solve minimizes the problem with the barrier method. If x0 is nil or not
// strictly feasible, phase I is run first. Runtime panics from the linear
// algebra are converted into typed resilience.SolveError values.
func Solve(p *Problem, x0 []float64, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = resilience.FromPanic("convex.barrier", r)
		}
	}()
	opts = opts.withDefaults()
	n := p.G.N
	m := p.G.M
	if len(p.H) != m {
		return nil, fmt.Errorf("convex: %d constraint rows but %d right-hand sides", m, len(p.H))
	}
	x := linalg.Clone(x0)
	if x0 == nil || len(x0) != n || !comfortablyFeasible(p.G, p.H, x0) {
		var err error
		x, err = FindStrictlyFeasible(p.G, p.H)
		if err != nil {
			return nil, err
		}
	}

	ws := opts.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(n, m)
	grad := ws.grad[:n]
	fullGrad := ws.fullGrad[:n]
	slack := ws.slack[:m]
	dx := ws.dx[:n]
	xTrial := ws.xTrial[:n]
	hess := ws.hess

	res = &Result{}
	// The fault plan can cap the total Newton budget to force an
	// iteration-limit exit; organically the outer/inner loop bounds are the
	// only budget.
	budget := opts.Fault.Budget(opts.MaxOuter * opts.MaxNewton)
	budgetInjected := budget < opts.MaxOuter*opts.MaxNewton
	condEst := 0.0
	t := opts.TInit
	for outer := 0; outer < opts.MaxOuter; outer++ {
		// Centering: Newton on t·f(x) − Σ ln(h − Gx).
		for newton := 0; newton < opts.MaxNewton; newton++ {
			iter := res.NewtonIters
			res.NewtonIters++
			if cerr := resilience.Interrupted(opts.Ctx, "convex.barrier", iter); cerr != nil {
				return nil, cerr
			}
			opts.Fault.MaybePanic(iter)
			if opts.Fault.NaNShouldInject(iter) {
				x[0] = math.NaN()
			}
			if !linalg.AllFinite(x) {
				return nil, &resilience.SolveError{
					Stage: "convex.barrier", Class: resilience.ClassNonFinite,
					Iters: iter, CondEst: condEst,
					Err: errors.New("non-finite iterate"),
				}
			}
			if budgetInjected && res.NewtonIters > budget {
				return nil, &resilience.SolveError{
					Stage: "convex.barrier", Class: resilience.ClassIterationLimit,
					Iters: iter, CondEst: condEst,
					Err: fmt.Errorf("Newton budget exhausted: %w", resilience.ErrInjected),
				}
			}
			computeSlack(p.G, p.H, x, slack)
			p.Obj.Gradient(grad, x)
			p.Obj.Hessian(hess, x)
			for i := range fullGrad {
				fullGrad[i] = t * grad[i]
			}
			for i := range hess.Data {
				hess.Data[i] *= t
			}
			// Barrier gradient and Hessian: Gᵀ(1/s) and Gᵀ diag(1/s²) G.
			for r, row := range p.G.Rows {
				//sorallint:ignore divguard barrier invariant: slack stays strictly positive (line search only accepts strictly feasible iterates)
				inv := 1 / slack[r]
				for _, e := range row {
					fullGrad[e.Index] += inv * e.Val
				}
				w := inv * inv
				for _, ei := range row {
					hrow := hess.Row(ei.Index)
					for _, ej := range row {
						hrow[ej.Index] += w * ei.Val * ej.Val
					}
				}
			}
			chol := ws.chol
			var cherr error
			fspan := opts.Obs.StartSpan("convex.factorize")
			if opts.Fault.FactorizationShouldFail(iter) {
				cherr = fmt.Errorf("forced factorization failure: %w", resilience.ErrInjected)
			} else {
				cherr = chol.RefactorizeWorkers(hess, 1e-6*maxAbsDiag(hess)+1e-12, opts.Workers)
			}
			fspan.End()
			if cherr != nil {
				return nil, &resilience.SolveError{
					Stage: "convex.barrier", Class: resilience.ClassFactorization,
					Iters: iter, CondEst: condEst,
					Err: fmt.Errorf("Newton system: %w", cherr),
				}
			}
			condEst = chol.ConditionEstimate()
			chol.Solve(dx, fullGrad)
			linalg.Scale(-1, dx)
			lambda2 := -linalg.Dot(fullGrad, dx) // Newton decrement squared
			if lambda2/2 <= 1e-12 {
				opts.Obs.Iteration("convex.newton", iter, obs.IterStats{
					Stage: outer, Decrement: lambda2,
				})
				break
			}
			// Backtracking line search maintaining strict feasibility.
			step := 1.0
			phi0 := t*p.Obj.Value(x) + barrier(slack)
			for ls := 0; ls < 60; ls++ {
				for i := range xTrial {
					xTrial[i] = x[i] + step*dx[i]
				}
				if strictlyFeasible(p.G, p.H, xTrial) {
					computeSlack(p.G, p.H, xTrial, slack)
					phi := t*p.Obj.Value(xTrial) + barrier(slack)
					if phi <= phi0-1e-4*step*lambda2 {
						break
					}
				}
				step *= 0.5
			}
			for i := range x {
				x[i] += step * dx[i]
			}
			opts.Obs.Iteration("convex.newton", iter, obs.IterStats{
				Stage: outer, Decrement: lambda2, Step: step,
			})
			if step*math.Sqrt(lambda2) < 1e-12 {
				break
			}
		}
		if float64(m)/t < opts.Tol {
			res.Converged = true
			break
		}
		t *= opts.Mu
	}
	computeSlack(p.G, p.H, x, slack)
	duals := make([]float64, m)
	for r := range duals {
		//sorallint:ignore divguard barrier invariant: slack is strictly positive at the final iterate and t grows from a positive start
		duals[r] = 1 / (t * slack[r])
	}
	res.X = x
	res.Obj = p.Obj.Value(x)
	res.Duals = duals
	return res, nil
}

func computeSlack(g *lp.SparseMatrix, h, x, slack []float64) {
	g.MulVec(slack, x)
	for r := range slack {
		slack[r] = h[r] - slack[r]
	}
}

func strictlyFeasible(g *lp.SparseMatrix, h, x []float64) bool {
	for r, row := range g.Rows {
		var s float64
		for _, e := range row {
			s += e.Val * x[e.Index]
		}
		if s >= h[r] {
			return false
		}
	}
	return true
}

// ComfortablyFeasible reports whether x is strictly feasible for G·x ≤ h
// with the same relative slack margin Solve demands of a caller-supplied
// warm start. Callers constructing warm points (core's slot-to-slot carry,
// DESIGN.md §13) use it to decide between handing the point to Solve and
// falling back to a structured cold start — a point rejected here would be
// silently replaced by a phase-I solve anyway.
func ComfortablyFeasible(g *lp.SparseMatrix, h, x []float64) bool {
	return comfortablyFeasible(g, h, x)
}

// comfortablyFeasible additionally demands a relative slack margin, so a
// warm start sitting numerically on the boundary (slack ~ 1e-300) does not
// blow up the barrier Hessian.
func comfortablyFeasible(g *lp.SparseMatrix, h, x []float64) bool {
	if !linalg.AllFinite(x) {
		return false
	}
	for r, row := range g.Rows {
		var s float64
		for _, e := range row {
			s += e.Val * x[e.Index]
		}
		if h[r]-s < 1e-9*(1+math.Abs(h[r])) {
			return false
		}
	}
	return true
}

func barrier(slack []float64) float64 {
	var b float64
	for _, s := range slack {
		b -= math.Log(s)
	}
	return b
}

func maxAbsDiag(m *linalg.Dense) float64 {
	var v float64
	for i := 0; i < m.Rows; i++ {
		if d := math.Abs(m.At(i, i)); d > v {
			v = d
		}
	}
	if v <= 0 {
		return 1
	}
	return v
}
