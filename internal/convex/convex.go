// Package convex implements two interior-point solvers for smooth convex
// objectives under sparse linear inequality constraints G·x ≤ h: a
// log-barrier method (Solve) and Mehrotra's primal–dual predictor–corrector
// (SolvePrimalDual), which share one Newton system.
//
// This is the engine behind the paper's regularized subproblem P2(t), whose
// objective mixes linear allocation costs with the entropic regularizer
// (u+ε)·ln((u+ε)/(uprev+ε)) − u. The solver only needs the objective's value,
// gradient, and Hessian through the Objective interface, so the same engine
// also solves quadratic programs and plain LPs (used for cross-checks
// against package lp).
//
// Both loops start from the caller's point, which must lie inside the
// objective's domain. The primal–dual loop takes any finite such start and
// carries the primal residual G·x + s − h until its steps close it; the
// barrier needs a strictly feasible start and hands any other to the
// primal–dual loop (StartsBarrier). No linear program is solved on the way.
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
	// Change returns f(x+α·dx) − f(x), computed without forming either
	// value: the line search tests this change against a decrease many
	// orders of magnitude below |f| (DESIGN.md §15).
	Change(x, dx []float64, alpha float64) float64
	// Gradient writes ∇f(x) into grad.
	Gradient(grad, x []float64)
	// AddHessian adds ∇²f(x) into the Newton system, which the solver has
	// cleared beforehand.
	AddHessian(ns *NewtonSystem, x []float64)
}

// Problem is: minimize Obj(x) subject to G·x ≤ H.
type Problem struct {
	Obj Objective
	G   *lp.SparseMatrix
	H   []float64

	// Blocks, when non-nil, assigns every variable a block of the Newton
	// matrix: Blocks[k] in [0, len(Blocks)) is variable k's block. Rows and
	// entropic groups inside one block add into that block's dense matrix;
	// the rest form a low-rank border folded into the block factors by
	// rank-one updates (NewtonSystem, DESIGN.md §15). nil is one block
	// holding every variable: the dense Newton step.
	Blocks []int
}

// Mu is the barrier method's growth factor: each stage multiplies the
// barrier weight by it.
const Mu = 20

// maxOuter bounds the barrier stages of one solve.
const maxOuter = 60

// Options tunes the two solve loops, Solve's barrier method and
// SolvePrimalDual.
type Options struct {
	Tol float64 // duality-gap tolerance (default 1e-7)
	// MaxNewton bounds the Newton steps of one barrier centering, and of a
	// whole primal–dual solve (default 80).
	MaxNewton int

	// Ctx, when non-nil, is checked at every Newton iteration; an expired
	// deadline or cancellation aborts the solve with a typed
	// resilience.SolveError (class ClassCanceled).
	Ctx context.Context

	// Fault, when non-nil, injects deterministic failures for resilience
	// testing (see resilience.FaultPlan). Production callers leave it nil.
	Fault *resilience.FaultPlan

	// Obs, when non-nil, receives one iteration event per Newton step: the
	// barrier's stage, squared decrement and accepted step size, or the
	// primal–dual loop's residuals, gap and step. A nil scope costs one
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
	if o.MaxNewton <= 0 {
		o.MaxNewton = 80
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

// Solve minimizes the problem with the barrier method, following the
// central path: stages before the final one center loosely and hand the
// next stage a tangent prediction, and the final stage centers exactly
// (DESIGN.md §15). The barrier needs a strictly feasible start: an x0 for
// which StartsBarrier is false is solved by SolvePrimalDual instead; a nil
// x0 is an error. Either loop needs x0 inside the objective's domain (for
// Entropic, every group's sum above −ε). Runtime panics from the linear
// algebra are converted into typed resilience.SolveError values.
func Solve(p *Problem, x0 []float64, opts Options) (res *Result, err error) {
	iters := 0 // Newton steps run, one per convex.newton iteration event
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = resilience.FromPanic("convex.barrier", iters, r)
		}
	}()
	opts = opts.withDefaults()
	n := p.G.N
	m := p.G.M
	if len(p.H) != m {
		return nil, fmt.Errorf("convex: %d constraint rows but %d right-hand sides", m, len(p.H))
	}
	if len(x0) != n {
		return nil, fmt.Errorf("convex: start of length %d for %d variables", len(x0), n)
	}
	if !StartsBarrier(p, x0) {
		return SolvePrimalDual(p, x0, nil, opts)
	}
	x := linalg.Clone(x0)

	ws := opts.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(n, m)
	grad := ws.grad[:n]
	fullGrad := ws.fullGrad[:n]
	slack := ws.slack[:m]
	slackTrial := ws.slackTrial[:m]
	gdx := ws.gdx[:m]
	dx := ws.dx[:n]
	ns := &ws.ns
	if err := ns.setup(p.Blocks, p.G); err != nil {
		return nil, err
	}
	// Resolved once: ≤ 0 would otherwise read GOMAXPROCS in every block
	// factorization of every Newton step.
	workers := linalg.ResolveWorkers(opts.Workers)

	res = &Result{}
	// The fault plan can cap the total Newton budget to force an
	// iteration-limit exit; organically the outer/inner loop bounds are the
	// only budget.
	budget := opts.Fault.Budget(maxOuter * opts.MaxNewton)
	budgetInjected := budget < maxOuter*opts.MaxNewton
	condEst := 0.0
	t := 1.0 // barrier weight
	// An accepted line-search trial's slack carries into the next Newton
	// step (haveSlack); a new barrier stage or an exhausted line search
	// drops it, and the slack is then recomputed exactly as h − G·x.
	for outer := 0; outer < maxOuter; outer++ {
		haveSlack := false
		// The stage that meets the gap bound m/t < Tol centers exactly; an
		// earlier stage stops once λ ≤ ¼, inside Newton's quadratic region,
		// and hands the next stage a predicted point (DESIGN.md §15).
		final := float64(m)/t < opts.Tol
		stop := 1.0 / 32
		if final {
			stop = 1e-12
		}
		centered := false
		// Centering: Newton on t·f(x) − Σ ln(h − Gx).
		for newton := 0; newton < opts.MaxNewton; newton++ {
			iter := res.NewtonIters
			iters = iter
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
			if !haveSlack {
				exactSlack(p.G, p.H, x, slack)
			}
			assemble(p, ns, x, slack, t, grad, fullGrad)
			var cherr error
			fspan := opts.Obs.StartSpan("convex.factorize")
			if opts.Fault.FactorizationShouldFail(iter) {
				cherr = fmt.Errorf("forced factorization failure: %w", resilience.ErrInjected)
			} else {
				cherr = ns.factor(workers)
			}
			fspan.End()
			if cherr != nil {
				return nil, &resilience.SolveError{
					Stage: "convex.barrier", Class: resilience.ClassFactorization,
					Iters: iter, CondEst: condEst,
					Err: fmt.Errorf("Newton system: %w", cherr),
				}
			}
			condEst = ns.condEst
			ns.solve(dx, fullGrad)
			lambda2 := -linalg.Dot(fullGrad, dx) // Newton decrement squared
			if lambda2/2 <= stop {
				opts.Obs.Iteration("convex.newton", iter, obs.IterStats{
					Stage: outer, Decrement: lambda2,
				})
				centered = true
				break
			}
			// Backtracking line search maintaining strict feasibility. The
			// Armijo test reads the merit's change along x + α·dx,
			// t·[f(x+α·dx) − f(x)] − Σ ln(s_r(α)/s_r), never the merit
			// itself: late in the path |t·f| ≈ 1e10 while λ² ≈ 1e-11, so
			// one merit's rounding exceeds the decrease tested. The slack
			// along the ray is s − α·g with g = G·dx, computed once per
			// Newton step (DESIGN.md §15).
			lspan := opts.Obs.StartSpan("convex.linesearch")
			p.G.MulVec(gdx, dx)
			haveSlack = false
			// Steps at or beyond α_max make some slack non-positive; halve
			// past them without evaluating the trial.
			step, halvings, trials := 1.0, 0, 0
			for amax := maxStep(slack, gdx); halvings < 60 && step >= amax; halvings++ {
				step *= 0.5
			}
			for ; halvings < 60; halvings++ {
				trials++
				if raySlack(slackTrial, slack, gdx, step) {
					dphi := t*p.Obj.Change(x, dx, step) - logRatio(slackTrial, slack)
					if dphi <= -1e-4*step*lambda2 {
						// The accepted trial's slack carries into the next
						// Newton step.
						haveSlack = true
						slack, slackTrial = slackTrial, slack
						break
					}
				}
				step *= 0.5
			}
			lspan.End()
			for i := range x {
				x[i] += step * dx[i]
			}
			opts.Obs.Iteration("convex.newton", iter, obs.IterStats{
				Stage: outer, Decrement: lambda2, Step: step, Trials: trials,
			})
			if step*math.Sqrt(lambda2) < 1e-12 {
				break
			}
		}
		if final {
			res.Converged = true
			break
		}
		if centered {
			predict(p, ns, x, slack, slackTrial, grad, dx, gdx, t)
		}
		t *= Mu
	}
	iters = res.NewtonIters
	exactSlack(p.G, p.H, x, slack)
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

// predict moves x along the central path's tangent from weight t towards
// Mu·t. The stage ended on the decrement test, so ns still holds the
// factored Newton matrix H at x and grad holds ∇f(x); differentiating the
// centering condition t·∇f + Gᵀ(1/s) = 0 in t gives the tangent −H⁻¹∇f,
// and the step to the next weight is Δ = −(Mu−1)·t·H⁻¹∇f, one back-solve.
// The step backtracks from min(1, 0.9·α_max) by halving until the trial
// is strictly feasible and lowers the next stage's merit
// Mu·t·f − Σ ln s; x is left where it is when no trial qualifies. It
// uses dx, gdx and slackTrial as scratch and allocates nothing.
func predict(p *Problem, ns *NewtonSystem, x, slack, slackTrial, grad, dx, gdx []float64, t float64) {
	ns.solve(dx, grad)
	for i := range dx {
		dx[i] *= (Mu - 1) * t
	}
	p.G.MulVec(gdx, dx)
	step := math.Min(1, 0.9*maxStep(slack, gdx))
	for halvings := 0; halvings < 60; halvings++ {
		if raySlack(slackTrial, slack, gdx, step) &&
			Mu*t*p.Obj.Change(x, dx, step)-logRatio(slackTrial, slack) < 0 {
			for i := range x {
				x[i] += step * dx[i]
			}
			return
		}
		step *= 0.5
	}
}

// assemble builds the barrier Newton system at x, with slack s = h − G·x
// and barrier weight t: the matrix t·∇²f(x) + Gᵀ·diag(1/s²)·G into ns and
// the gradient t·∇f(x) + Gᵀ(1/s) into fullGrad, ∇f(x) into grad.
func assemble(p *Problem, ns *NewtonSystem, x, slack []float64, t float64, grad, fullGrad []float64) {
	p.Obj.Gradient(grad, x)
	ns.reset()
	p.Obj.AddHessian(ns, x)
	for i := range fullGrad {
		fullGrad[i] = t * grad[i]
	}
	ns.scale(t)
	for r, row := range p.G.Rows {
		//sorallint:ignore divguard barrier invariant: slack stays strictly positive (line search only accepts strictly feasible iterates)
		inv := 1 / slack[r]
		for _, e := range row {
			fullGrad[e.Index] += inv * e.Val
		}
		ns.addRow(r, row, inv*inv)
	}
}

// exactSlack writes h − G·x into slack.
func exactSlack(g *lp.SparseMatrix, h, x, slack []float64) {
	g.MulVec(slack, x)
	for r := range slack {
		slack[r] = h[r] - slack[r]
	}
}

// maxStep returns α_max, the least s_r/g_r over the rows with g_r > 0: the
// step along the search ray at which the first slack reaches zero. It is
// +Inf when no slack shrinks along the ray.
func maxStep(slack, g []float64) float64 {
	amax := math.Inf(1)
	for r, gr := range g {
		if gr > 0 {
			if a := slack[r] / gr; a < amax {
				amax = a
			}
		}
	}
	return amax
}

// raySlack writes the slack at step along the search ray, s − step·g, into
// trial and reports whether every entry is strictly positive, i.e. whether
// the trial point is strictly feasible.
func raySlack(trial, slack, g []float64, step float64) bool {
	ok := true
	for r, gr := range g {
		v := slack[r] - step*gr
		trial[r] = v
		ok = ok && v > 0
	}
	return ok
}

// comfortSlack is the relative slack margin a start must keep on every
// row, h_r − (G·x)_r ≥ comfortSlack·(1 + |h_r|), for the barrier to take it
// and for the primal–dual loop to keep its slack.
const comfortSlack = 1e-9

// StartsBarrier reports whether Solve runs the barrier from x0: x0 fits
// the problem, is finite and keeps the relative slack margin comfortSlack
// on every row of G·x ≤ h, so a start sitting numerically on the boundary
// (slack ~ 1e-300) does not blow up the barrier Hessian. From any other
// start of the right length Solve runs SolvePrimalDual.
func StartsBarrier(p *Problem, x0 []float64) bool {
	g, h := p.G, p.H
	if len(x0) != g.N || len(h) != g.M || !linalg.AllFinite(x0) {
		return false
	}
	for r, row := range g.Rows {
		var s float64
		for _, e := range row {
			s += e.Val * x0[e.Index]
		}
		if h[r]-s < comfortSlack*(1+math.Abs(h[r])) {
			return false
		}
	}
	return true
}

// logRatio returns Σ ln(num_r/den_r) for positive num and den with one
// logarithm. Each value is split into a mantissa in [½, 1) and a binary
// exponent, as math.Frexp does; the mantissa ratios are multiplied and the
// exponent differences summed, so the sum is ln(∏ mantissa ratios) +
// (Σ exponent differences)·ln 2. A normal value's mantissa and exponent
// are read off its bits (split), which costs a fraction of a Frexp call.
// No ratio is formed from the values themselves, so none overflows or
// underflows however far apart num_r and den_r are. The running product is
// renormalized with math.Frexp every 8 factors, each in (½, 2), which
// keeps it within (2⁻⁹, 2⁸).
func logRatio(num, den []float64) float64 {
	prod, exp := 1.0, 0
	for i := range num {
		fn, en := split(num[i])
		fd, ed := split(den[i])
		//sorallint:ignore divguard fd is a mantissa in [½, 1)
		prod *= fn / fd
		exp += en - ed
		if i&7 == 7 {
			f, e := math.Frexp(prod)
			prod = f
			exp += e
		}
	}
	return math.Log(prod) + float64(exp)*math.Ln2
}

// split returns the mantissa f in [½, 1) and exponent e of a positive v,
// v = f·2ᵉ, as math.Frexp does, read off v's bits. A subnormal v is first
// scaled by 2⁶⁴, which is exact and makes it normal; with no call left in
// it, split inlines into logRatio's loop.
func split(v float64) (float64, int) {
	b, e := math.Float64bits(v), -1022
	if b>>52 == 0 {
		b, e = math.Float64bits(v*0x1p64), -1022-64
	}
	return math.Float64frombits(b&(1<<52-1) | 1022<<52), int(b>>52) + e
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
