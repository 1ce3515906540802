package convex

import (
	"errors"
	"fmt"
	"math"

	"soral/internal/linalg"
	"soral/internal/obs"
	"soral/internal/resilience"
)

// pdStage names the primal–dual loop in its errors.
const pdStage = "convex.primaldual"

const (
	// pdStartGap is the duality gap sᵀz of the primal–dual start: z_r =
	// pdStartGap/(m·s_r) puts every row at one common complementarity. It
	// is a constant, so the start is a pure function of x0.
	pdStartGap = 10

	// pdDualFloor bounds a carried multiplier below: from a given z0 a row
	// starts at z_r = max(z0_r, pdDualFloor/s_r), so no row starts at a
	// complementarity s_r·z_r under pdDualFloor, where a tiny exit dual
	// would leave it. On P2's warm rung the floors from 1e-12 to 1e-4
	// differ by at most ~0.1 steps a slot on the paper-sized network and
	// ~1 on larger ones, each end best on one of them (EXPERIMENTS.md), so
	// it is one constant between them, not an option.
	pdDualFloor = 1e-6

	// pdStartSlack is the relative slack a row starts at when x0 does not
	// satisfy it comfortably: s_r = pdStartSlack·(1 + |h_r|), and the
	// primal residual r_p = G·x + s − h carries the difference. A small
	// slack starts the row's multiplier large (z_r = pdStartGap/(m·s_r))
	// and lets the fraction-to-boundary rule cut the first steps short;
	// EXPERIMENTS.md compares 1e-4, 1e-2 and 1.
	pdStartSlack = 1

	// pdStep is the fraction-to-boundary factor of a step.
	pdStep = 0.99

	// pdStatTol is the relative stationarity tolerance of the exit test,
	// ‖∇f + Gᵀz‖∞ ≤ pdStatTol·(1 + ‖∇f‖∞), and of the primal residual,
	// ‖G·x + s − h‖∞ ≤ pdStatTol·(1 + ‖h‖∞).
	pdStatTol = 1e-8

	// pdTargetFloor bounds the centering target below: τ ≥
	// Tol/(pdTargetFloor·m), a tenth of the gap tolerance spread over the
	// rows. A gap far below the tolerance buys nothing, and every further
	// 100-fold cut of it makes the weights z/s of the active rows 100
	// times stiffer.
	pdTargetFloor = 10

	// pdSigmaSafe is the centering parameter of the safeguard direction
	// (see SolvePrimalDual).
	pdSigmaSafe = 0.1

	// pdArmijo is the sufficient-decrease constant of the merit test, and
	// pdMaxTrials bounds the merit evaluations of one step.
	pdArmijo    = 1e-4
	pdMaxTrials = 40

	// pdRefineSteps bounds the iterative-refinement corrections of one
	// direction (see pdBuffers.refine).
	pdRefineSteps = 20
)

// SolvePrimalDual minimizes the problem from x0 with Mehrotra's
// predictor–corrector primal–dual interior-point method, the nonlinear
// counterpart of lp.SolveStandard (DESIGN.md §15). It works on
//
//	minimize f(x)  subject to  G·x + s = h,  s ≥ 0,
//
// with multipliers z ≥ 0 on the rows. Each step factors the Newton matrix
// ∇²f(x) + Gᵀ·diag(z/s)·G once, in the same NewtonSystem the barrier uses
// (block map, cell fold, product-form border) with row weights z/s in
// place of 1/s², and back-solves it twice: for the affine direction, then
// for the corrector with centering target τ = max(σμ, Tol/(10·m)), σ =
// (μ_aff/μ)³, μ = sᵀz/m. Each direction is checked against the assembled
// matrix and refined where the factors are not exact enough (refine).
// x, s and z move by one step length, 0.99 of the way to the boundary of
// s, z ≥ 0 or 1.
//
// There is no barrier line search. A step must cut the residual merit
// ‖∇f + Gᵀz‖² + ‖G·x + s − h‖² + ‖s∘z − τ‖² by the Armijo fraction. The
// corrector step usually does; when its second-order term makes it climb
// the merit (a nonlinear f can make full steps cycle), a third back-solve
// gives the plain Newton direction for the target max(μ/10, Tol/(10·m)),
// which descends the merit, and the step along it is halved until the
// merit falls.
//
// x0 may be any finite point; it need not satisfy G·x ≤ h (Mehrotra 1992;
// Wright, Primal-Dual Interior-Point Methods, ch. 11). A row that x0
// satisfies comfortably, h_r − (G·x0)_r ≥ comfortSlack·(1 + |h_r|), starts
// at that slack; any other row starts at pdStartSlack·(1 + |h_r|), and the
// primal residual r_p = G·x + s − h carries the difference until the steps
// close it. x0 must lie inside the objective's domain (for Entropic, every
// group's sum above −ε), which the loop does not restore. With a nil z0
// the multipliers start at z_r = pdStartGap/(m·s_r), a pure function of
// x0; a finite z0 of one entry per row (the exit duals of a neighbouring
// problem with the same rows) starts them at max(z0_r, pdDualFloor/s_r),
// a pure function of (x0, z0). The solve stops when sᵀz ≤ Tol and both
// the stationarity residual ‖∇f + Gᵀz‖∞ and the primal residual
// ‖G·x + s − h‖∞ are below 1e-8 relative; Result.Duals is z. MaxNewton
// bounds the steps (a solve that runs out returns Converged false, and its
// x may break G·x ≤ h). Ctx, Fault, Obs, Workers and Work act as in Solve:
// every step emits one convex.newton iteration event and one
// convex.factorize span, and with a Work the steps allocate nothing.
func SolvePrimalDual(p *Problem, x0, z0 []float64, opts Options) (res *Result, err error) {
	iters := 0 // steps run, one per convex.newton iteration event
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = resilience.FromPanic(pdStage, iters, r)
		}
	}()
	opts = opts.withDefaults()
	n, m := p.G.N, p.G.M
	if len(p.H) != m {
		return nil, fmt.Errorf("convex: %d constraint rows but %d right-hand sides", m, len(p.H))
	}
	if len(x0) != n || !linalg.AllFinite(x0) {
		return nil, fmt.Errorf("convex: primal–dual start of length %d is not a finite point of length %d", len(x0), n)
	}
	if z0 != nil && (len(z0) != m || !linalg.AllFinite(z0)) {
		return nil, fmt.Errorf("convex: dual start of length %d is not a finite vector of length %d", len(z0), m)
	}
	x := linalg.Clone(x0)

	ws := opts.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(n, m)
	pd := ws.ensurePrimalDual(n, m)
	s, z := pd.s, pd.z
	ns := &ws.ns
	if err := ns.setup(p.Blocks, p.G); err != nil {
		return nil, err
	}
	workers := linalg.ResolveWorkers(opts.Workers)

	exactSlack(p.G, p.H, x, s)
	for r := range z {
		if room := 1 + math.Abs(p.H[r]); !(s[r] >= comfortSlack*room) {
			s[r] = pdStartSlack * room
		}
		// After the reset every slack is at least comfortSlack·(1 + |h_r|) > 0.
		if z0 != nil {
			z[r] = math.Max(z0[r], pdDualFloor/s[r])
		} else {
			z[r] = pdStartGap / (float64(m) * s[r])
		}
	}
	hTol := pdStatTol * (1 + linalg.NormInf(p.H))
	floor := opts.Tol / (pdTargetFloor * float64(m))

	res = &Result{}
	budget := opts.Fault.Budget(opts.MaxNewton)
	budgetInjected := budget < opts.MaxNewton
	condEst := 0.0
	residuals(p, x, s, z, pd.grad, pd.rd, pd.rp)
	for {
		gap := linalg.Dot(s, z)
		dualRes, primalRes := linalg.NormInf(pd.rd), linalg.NormInf(pd.rp)
		if gap <= opts.Tol && dualRes <= pdStatTol*(1+linalg.NormInf(pd.grad)) && primalRes <= hTol {
			res.Converged = true
			break
		}
		if res.NewtonIters == opts.MaxNewton {
			break
		}
		iter := res.NewtonIters
		iters = iter
		res.NewtonIters++
		if cerr := resilience.Interrupted(opts.Ctx, pdStage, iter); cerr != nil {
			return nil, cerr
		}
		opts.Fault.MaybePanic(iter)
		if opts.Fault.NaNShouldInject(iter) {
			x[0] = math.NaN()
		}
		if !linalg.AllFinite(x) || !linalg.AllFinite(s) || !linalg.AllFinite(z) {
			return nil, &resilience.SolveError{
				Stage: pdStage, Class: resilience.ClassNonFinite,
				Iters: iter, CondEst: condEst,
				Err: errors.New("non-finite iterate"),
			}
		}
		if budgetInjected && res.NewtonIters > budget {
			return nil, &resilience.SolveError{
				Stage: pdStage, Class: resilience.ClassIterationLimit,
				Iters: iter, CondEst: condEst,
				Err: fmt.Errorf("Newton budget exhausted: %w", resilience.ErrInjected),
			}
		}

		ns.reset()
		p.Obj.AddHessian(ns, x)
		for r, row := range p.G.Rows {
			// The fraction-to-boundary rule keeps every slack strictly positive.
			ns.addRow(r, row, z[r]/s[r])
		}
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
				Stage: pdStage, Class: resilience.ClassFactorization,
				Iters: iter, CondEst: condEst,
				Err: fmt.Errorf("Newton system: %w", cherr),
			}
		}
		condEst = ns.condEst

		// Predictor: the affine direction, r_c = s∘z, and the
		// complementarity a full step along it would leave.
		for r := range pd.rc {
			pd.rc[r] = s[r] * z[r]
		}
		pd.direction(p, ns)
		alpha := math.Min(1, pd.maxStep())
		var gapAff float64
		for r := range s {
			gapAff += (s[r] + alpha*pd.ds[r]) * (z[r] + alpha*pd.dz[r])
		}
		sigma := math.Min(1, math.Pow(gapAff/gap, 3))
		mu := gap / float64(m)
		target := math.Max(sigma*mu, floor)

		// Corrector: r_c = s∘z + Δs_aff∘Δz_aff − τ, on the same factors.
		copy(pd.dsAff, pd.ds)
		copy(pd.dzAff, pd.dz)
		for r := range pd.rc {
			pd.rc[r] = s[r]*z[r] + pd.dsAff[r]*pd.dzAff[r] - target
		}
		pd.direction(p, ns)
		alpha = math.Min(1, pdStep*pd.maxStep())
		trials := 1
		ok := pd.trial(p, x, alpha, target) <= (1-2*pdArmijo*alpha)*pd.merit(target)
		if !ok {
			// Safeguard: the plain Newton direction for r_c = s∘z − τ,
			// along which the merit's slope is −2·merit, backtracked.
			target = math.Max(pdSigmaSafe*mu, floor)
			for r := range pd.rc {
				pd.rc[r] = s[r]*z[r] - target
			}
			pd.direction(p, ns)
			phi0 := pd.merit(target)
			alpha = math.Min(1, pdStep*pd.maxStep())
			for ; !ok && trials < pdMaxTrials; trials++ {
				ok = pd.trial(p, x, alpha, target) <= (1-2*pdArmijo*alpha)*phi0
				if !ok {
					alpha *= 0.5
				}
			}
		}
		if !ok {
			return nil, &resilience.SolveError{
				Stage: pdStage, Class: resilience.ClassStepCollapse,
				Iters: iter, CondEst: condEst,
				Err: errors.New("no step decreases the residual merit"),
			}
		}
		// The accepted trial point is the next iterate, and its merit
		// evaluation left its gradient and residuals in g, rdt and u.
		copy(x, pd.xt)
		copy(s, pd.st)
		copy(z, pd.zt)
		copy(pd.grad, pd.g)
		copy(pd.rd, pd.rdt)
		copy(pd.rp, pd.u)
		opts.Obs.Iteration("convex.newton", iter, obs.IterStats{
			Primal: primalRes, Dual: dualRes, Gap: gap, Step: alpha, Trials: trials,
		})
	}
	iters = res.NewtonIters
	res.X = x
	res.Obj = p.Obj.Value(x)
	res.Duals = linalg.Clone(z)
	return res, nil
}

// pdBuffers are the primal–dual loop's vectors, held by its Workspace: at
// the iterate, the gradient, the residuals r_d = ∇f + Gᵀz and r_p =
// G·x + s − h, the slack s and the multipliers z; the complementarity
// right-hand side r_c; the direction (dx, ds, dz) and the affine one's
// (ds, dz); a trial point (xt, st, zt) with its residual rdt; refinement
// scratch rq and corr; and scratch g and u. grad, g, dx, s, st and u are
// the barrier's buffers (Workspace.ensurePrimalDual).
type pdBuffers struct {
	grad, rd, g, dx, xt, rdt, rq, corr []float64 // n-sized
	s, z, rp, rc, ds, dz, dsAff, dzAff []float64 // m-sized
	st, zt, u                          []float64 // m-sized
}

// direction solves the Newton system factored in ns for the current r_c,
//
//	(∇²f + Gᵀ·W·G)·Δx = −r_d − Gᵀ·(W·r_p − S⁻¹·r_c),   W = diag(z/s),
//	Δs = −r_p − G·Δx,
//	Δz = −S⁻¹·(r_c + Z·Δs),
//
// the elimination of G·Δx + Δs = −r_p and Z·Δs + S·Δz = −r_c from the
// linearized KKT conditions, whose first row ∇²f·Δx + Gᵀ·Δz = −r_d holds
// whatever r_c is.
func (b *pdBuffers) direction(p *Problem, ns *NewtonSystem) {
	for r := range b.u {
		b.u[r] = (b.z[r]*b.rp[r] - b.rc[r]) / b.s[r]
	}
	p.G.MulVecTrans(b.g, b.u)
	for i := range b.g {
		b.g[i] += b.rd[i]
	}
	ns.solve(b.dx, b.g)
	b.refine(ns)
	p.G.MulVec(b.ds, b.dx)
	for r := range b.ds {
		b.ds[r] = -b.rp[r] - b.ds[r]
		b.dz[r] = -(b.rc[r] + b.z[r]*b.ds[r]) / b.s[r]
	}
}

// refine makes dx = −M⁻¹·g exact enough for the step: ns.solve applies
// the factored matrix, which differs from the assembled M where a block's
// Cholesky took a diagonal shift or the fold dropped or rounded away a
// cell's small weights (NewtonSystem.factor). The primal–dual weights z/s
// span from ~1e-10 on inactive rows to ~1e9 on active ones, so a block can
// be singular on its own and a small weight can carry the only curvature
// of a direction. The residual M·dx + g is the error in the first KKT row,
// ∇²f·Δx + Gᵀ·Δz = −r_d, which the step's decrease of r_d relies on;
// while it exceeds 1e-3·‖r_d‖∞ (plus rounding) and halves per pass,
// iterative refinement corrects dx, at most pdRefineSteps times. On most
// steps the first residual already passes, and refine costs one mulVec.
func (b *pdBuffers) refine(ns *NewtonSystem) {
	q, c := b.rq, b.corr
	goal := 1e-3*linalg.NormInf(b.rd) + 1e-15*linalg.NormInf(b.g)
	prev := math.Inf(1)
	for k := 0; k < pdRefineSteps; k++ {
		ns.mulVec(q, b.dx)
		for i := range q {
			q[i] += b.g[i]
		}
		res := linalg.NormInf(q)
		if res <= goal || !(res < 0.5*prev) {
			return
		}
		prev = res
		ns.solve(c, q)
		for i := range c {
			b.dx[i] += c[i]
		}
	}
}

// maxStep is the step along (ds, dz) at which the first of s and z reaches
// zero, +Inf when none shrinks.
func (b *pdBuffers) maxStep() float64 {
	return math.Min(stepToBoundary(b.s, b.ds), stepToBoundary(b.z, b.dz))
}

// merit is the residual merit ‖r_d‖² + ‖r_p‖² + ‖s∘z − τ‖² at the iterate.
func (b *pdBuffers) merit(target float64) float64 {
	return meritOf(b.rd, b.rp, b.s, b.z, target)
}

// trial writes the point α along the direction into xt, st and zt and
// returns its residual merit.
func (b *pdBuffers) trial(p *Problem, x []float64, alpha, target float64) float64 {
	for i := range x {
		b.xt[i] = x[i] + alpha*b.dx[i]
	}
	for r := range b.s {
		b.st[r] = b.s[r] + alpha*b.ds[r]
		b.zt[r] = b.z[r] + alpha*b.dz[r]
	}
	residuals(p, b.xt, b.st, b.zt, b.g, b.rdt, b.u)
	return meritOf(b.rdt, b.u, b.st, b.zt, target)
}

// residuals writes ∇f(x) into grad, the stationarity residual
// ∇f(x) + Gᵀz into rd and the primal residual G·x + s − h into rp.
func residuals(p *Problem, x, s, z, grad, rd, rp []float64) {
	p.Obj.Gradient(grad, x)
	p.G.MulVecTrans(rd, z)
	for i := range rd {
		rd[i] += grad[i]
	}
	p.G.MulVec(rp, x)
	for r := range rp {
		rp[r] += s[r] - p.H[r]
	}
}

// meritOf is ‖rd‖² + ‖rp‖² + ‖s∘z − τ‖².
func meritOf(rd, rp, s, z []float64, target float64) float64 {
	phi := linalg.Dot(rd, rd) + linalg.Dot(rp, rp)
	for r := range s {
		c := s[r]*z[r] - target
		phi += c * c
	}
	return phi
}

// stepToBoundary returns the largest α with v + α·dv ≥ 0 for a positive v:
// the least −v_r/dv_r over dv_r < 0, +Inf when nothing shrinks.
func stepToBoundary(v, dv []float64) float64 {
	a := math.Inf(1)
	for r, d := range dv {
		if d < 0 {
			if t := -v[r] / d; t < a {
				a = t
			}
		}
	}
	return a
}
