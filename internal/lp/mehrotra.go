package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"soral/internal/linalg"
	"soral/internal/obs"
	"soral/internal/resilience"
)

// Status reports the outcome of a solve.
type Status int8

const (
	// Optimal means the solver converged to the requested tolerance.
	Optimal Status = iota
	// IterationLimit means the iteration budget ran out first.
	IterationLimit
	// Infeasible means the solver concluded the problem has no feasible point.
	Infeasible
	// Unbounded means the objective appears unbounded below.
	Unbounded
	// NumericalFailure means the linear algebra broke down.
	NumericalFailure
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case IterationLimit:
		return "iteration-limit"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NumericalFailure:
		return "numerical-failure"
	}
	return "unknown"
}

// Options configures the interior-point solver.
type Options struct {
	Tol     float64 // relative optimality/feasibility tolerance (default 1e-8)
	MaxIter int     // default 100

	// Ctx, when non-nil, is checked at the top of every iteration; an
	// expired deadline or cancellation aborts the solve with a typed
	// resilience.SolveError (class ClassCanceled).
	Ctx context.Context

	// Fault, when non-nil, injects deterministic failures for resilience
	// testing (see resilience.FaultPlan). Production callers leave it nil.
	Fault *resilience.FaultPlan

	// Obs, when non-nil, receives one iteration event per Mehrotra iteration
	// (residuals, gap) and attributes CPU samples to phase=lp-mehrotra. A nil
	// scope costs one branch per iteration.
	Obs *obs.Scope

	// Workers bounds the goroutines the parallel linear-algebra kernels
	// (normal-equation assembly, blocked Cholesky) may fan out to. 0 means
	// GOMAXPROCS, 1 means fully serial; negative values are rejected by
	// validation. Results are bit-identical for every worker count
	// (DESIGN.md §8).
	Workers int

	// Work, when non-nil, supplies reusable solver buffers so repeated
	// solves of same-shaped problems allocate nothing per iteration. The
	// returned Solution's X/Y/S alias the workspace and are only valid
	// until the next solve with the same workspace (see Workspace). A
	// workspace must not be shared by concurrent solves.
	Work *Workspace
}

func (o Options) withDefaults() (Options, error) {
	if o.Workers < 0 {
		return o, fmt.Errorf("lp: Options.Workers %d is negative (0 means GOMAXPROCS, 1 means serial)", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = linalg.ResolveWorkers(0)
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	return o, nil
}

// Solution is the result of a standard-form solve.
type Solution struct {
	Status Status
	X      []float64 // primal (standard form)
	Y      []float64 // dual multipliers of Ax=b
	S      []float64 // reduced costs
	Obj    float64   // cᵀx in standard form
	Iters  int       // iterations run: one per lp.mehrotra iter event

	// Residuals holds the normalized primal/dual infeasibilities and the
	// complementarity gap at the final iterate. On an IterationLimit exit
	// they let the caller decide whether the last iterate is acceptable.
	Residuals resilience.Residuals
}

// NormalSolver abstracts the factor/solve of the normal equations
// A·diag(d)·Aᵀ that dominate each interior-point iteration. The Mehrotra
// loop calls Factorize once per iteration and Solve twice (predictor and
// corrector) against the same factorization.
type NormalSolver interface {
	Factorize(d []float64) error
	Solve(x, b []float64)
}

// DenseNormal assembles A·diag(d)·Aᵀ densely and factorizes with Cholesky.
// The assembled matrix and the Cholesky factor buffers are reused across
// Factorize calls, so a backend kept alive across solves (via Workspace)
// allocates nothing after its first factorization.
type DenseNormal struct {
	A    *SparseMatrix
	mat  *linalg.Dense
	chol *linalg.Cholesky

	// Workers bounds the goroutines of the assembly and factorization
	// kernels (0 means GOMAXPROCS, as in Options.Workers).
	Workers int

	// valid reports whether chol holds a usable factorization; a failed
	// Refactorize leaves the factor buffers in an undefined state.
	valid bool
}

// NewDenseNormal creates the default dense backend for A.
func NewDenseNormal(a *SparseMatrix) *DenseNormal {
	return &DenseNormal{A: a, mat: linalg.NewDense(a.M, a.M), chol: &linalg.Cholesky{}}
}

// Factorize implements NormalSolver.
func (dn *DenseNormal) Factorize(d []float64) error {
	dn.A.AssembleNormalWorkers(dn.mat, d, dn.Workers)
	if dn.chol == nil {
		dn.chol = &linalg.Cholesky{}
	}
	dn.valid = false
	if err := dn.chol.RefactorizeWorkers(dn.mat, 1e-4*maxDiag(dn.mat)+1e-10, dn.Workers); err != nil {
		return err
	}
	dn.valid = true
	return nil
}

func maxDiag(m *linalg.Dense) float64 {
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

// Solve implements NormalSolver.
func (dn *DenseNormal) Solve(x, b []float64) { dn.chol.Solve(x, b) }

// ConditionEstimate exposes the condition estimate of the last factorized
// normal matrix (see linalg.Cholesky.ConditionEstimate). Returns 0 before
// the first factorization.
func (dn *DenseNormal) ConditionEstimate() float64 {
	if dn.chol == nil || !dn.valid {
		return 0
	}
	return dn.chol.ConditionEstimate()
}

// condEstOf extracts a condition estimate from backends that provide one.
func condEstOf(normal NormalSolver) float64 {
	if ce, ok := normal.(interface{ ConditionEstimate() float64 }); ok {
		return ce.ConditionEstimate()
	}
	return 0
}

// ErrEmptyProblem is returned for a standard form with no variables.
var ErrEmptyProblem = errors.New("lp: empty problem")

// SolveStandard runs Mehrotra's predictor–corrector method on a
// standard-form LP with the given normal-equation backend. Runtime panics
// (e.g. a dimension mismatch in internal/linalg) are converted into typed
// resilience.SolveError values instead of propagating.
//
// With a warmed Options.Work a same-shape solve allocates only the Solution
// header, however many iterations it takes (pinned by
// TestSolveStandardWorkspaceZeroAlloc and, with the staircase backend,
// TestSolveStandardStaircaseZeroAlloc).
func SolveStandard(std *Standard, normal NormalSolver, opts Options) (sol *Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			// sol, once set, counts the iterations run (one per iteration
			// event); a panic before the loop has run none.
			iters := 0
			if sol != nil {
				iters = sol.Iters
			}
			sol = &Solution{Status: NumericalFailure}
			err = resilience.FromPanic("lp.mehrotra", iters, r)
		}
	}()
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	a := std.A
	n := len(std.C)
	m := a.M
	if n == 0 {
		return nil, ErrEmptyProblem
	}
	if m == 0 {
		return solveUnconstrained(n, std.C), nil
	}

	// Every vector of the solve lives in a workspace; with a caller-supplied
	// one (Options.Work) the loop below performs zero per-iteration slice
	// allocations, and repeated same-shape solves allocate nothing at all.
	ws := opts.Work
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(m, n)

	opts.Obs.SetGauge(obs.MetricWorkers, float64(opts.Workers))

	c := std.C
	b := std.B
	x := ws.x[:n]
	s := ws.s[:n]
	y := ws.y[:m]

	// Starting point (simplified Mehrotra heuristic): factor with d = 1.
	ones := ws.ones[:n]
	linalg.Fill(ones, 1)
	factSpan := opts.Obs.StartSpan("lp.factorize")
	ferr0 := normal.Factorize(ones)
	factSpan.End()
	if ferr0 != nil {
		return &Solution{Status: NumericalFailure}, &resilience.SolveError{
			Stage: "lp.mehrotra", Class: resilience.ClassFactorization,
			Err: fmt.Errorf("initial factorization: %w", ferr0),
		}
	}
	// x̃ = Aᵀ(AAᵀ)⁻¹ b
	tmpM := ws.tmpM[:m]
	normal.Solve(tmpM, b)
	a.MulVecTrans(x, tmpM)
	// ỹ = (AAᵀ)⁻¹ A c ; s̃ = c − Aᵀỹ
	ac := ws.ac[:m]
	a.MulVec(ac, c)
	normal.Solve(y, ac)
	aty := ws.aty[:n]
	a.MulVecTrans(aty, y)
	for i := range s {
		s[i] = c[i] - aty[i]
	}
	shiftPositive(x)
	shiftPositive(s)

	bNorm := 1 + linalg.NormInf(b)
	cNorm := 1 + linalg.NormInf(c)

	rb := ws.rb[:m]     // Ax − b
	rc := ws.rc[:n]     // Aᵀy + s − c
	rxs := ws.rxs[:n]   // complementarity rhs
	dvec := ws.dvec[:n] // x/s
	rhsM := ws.rhsM[:m]
	dy := ws.dy[:m]
	ds := ws.ds[:n]
	dx := ws.dx[:n]
	dxAff := ws.dxAff[:n]
	dsAff := ws.dsAff[:n]
	tmpN := ws.tmpN[:n]

	// residualsAt refreshes rb/rc and returns the normalized convergence
	// measures of the current iterate.
	residualsAt := func() resilience.Residuals {
		a.MulVec(rb, x)
		linalg.SubTo(rb, rb, b)
		a.MulVecTrans(rc, y)
		for i := range rc {
			rc[i] += s[i] - c[i]
		}
		mu := linalg.Dot(x, s) / float64(n)
		return resilience.Residuals{
			Primal: linalg.NormInf(rb) / bNorm,
			Dual:   linalg.NormInf(rc) / cNorm,
			Gap:    mu / (1 + math.Abs(linalg.Dot(c, x))),
		}
	}

	// The solve's one allocation: X, Y and S alias the workspace.
	sol = &Solution{X: x, Y: y, S: s}
	maxIter := opts.Fault.Budget(opts.MaxIter)
	for iter := 0; iter < maxIter; iter++ {
		if cerr := resilience.Interrupted(opts.Ctx, "lp.mehrotra", iter); cerr != nil {
			sol.Status = NumericalFailure
			sol.Residuals = residualsAt()
			return sol, cerr
		}
		opts.Fault.MaybePanic(iter)
		if opts.Fault.NaNShouldInject(iter) {
			x[0] = math.NaN()
		}
		if !linalg.AllFinite(x) || !linalg.AllFinite(s) || !linalg.AllFinite(y) {
			sol.Status = NumericalFailure
			return sol, &resilience.SolveError{
				Stage: "lp.mehrotra", Class: resilience.ClassNonFinite, Iters: iter,
				CondEst: condEstOf(normal),
				Err:     errors.New("non-finite iterate"),
			}
		}
		rres := residualsAt()
		sol.Residuals = rres
		opts.Obs.Iteration("lp.mehrotra", iter, obs.IterStats{
			Primal: rres.Primal, Dual: rres.Dual, Gap: rres.Gap,
		})
		// Iteration iter has run from here on, whichever exit it takes.
		sol.Iters = iter + 1
		mu := linalg.Dot(x, s) / float64(n)
		pinf, dinf, gap := rres.Primal, rres.Dual, rres.Gap
		if pinf < opts.Tol && dinf < opts.Tol && gap < opts.Tol {
			sol.Status = Optimal
			sol.Obj = linalg.Dot(c, x)
			return sol, nil
		}
		// Crude infeasibility/unboundedness detection: iterates diverging
		// while residuals refuse to shrink.
		if linalg.NormInf(x) > 1e13 || linalg.NormInf(s) > 1e13 {
			if pinf > dinf {
				sol.Status = Infeasible
			} else {
				sol.Status = Unbounded
			}
			sol.Obj = linalg.Dot(c, x)
			return sol, nil
		}

		for i := range dvec {
			dvec[i] = x[i] / s[i]
		}
		ferr := error(nil)
		if opts.Fault.FactorizationShouldFail(iter) {
			ferr = fmt.Errorf("forced factorization failure: %w", resilience.ErrInjected)
		} else {
			sp := opts.Obs.StartSpan("lp.factorize")
			ferr = normal.Factorize(dvec)
			sp.End()
		}
		if ferr != nil {
			sol.Status = NumericalFailure
			sol.Obj = linalg.Dot(c, x)
			return sol, &resilience.SolveError{
				Stage: "lp.mehrotra", Class: resilience.ClassFactorization, Iters: sol.Iters,
				Residuals: rres, CondEst: condEstOf(normal),
				Err: ferr,
			}
		}

		// Affine (predictor) direction: rxs = −x∘s.
		for i := range rxs {
			rxs[i] = -x[i] * s[i]
		}
		solveNewton(a, normal, dvec, rb, rc, rxs, x, s, rhsM, tmpN, dy, ds, dxAff)
		copy(dsAff, ds)

		alphaPX := maxStep(x, dxAff)
		alphaDS := maxStep(s, dsAff)
		muAff := 0.0
		for i := range x {
			muAff += (x[i] + alphaPX*dxAff[i]) * (s[i] + alphaDS*dsAff[i])
		}
		muAff /= float64(n)
		//sorallint:ignore divguard mu = xᵀs/n > 0 while iterating: x and s stay strictly positive interior points
		sigma := math.Pow(muAff/mu, 3)
		if sigma > 1 {
			sigma = 1
		}

		// Corrector: rxs = σμ·1 − x∘s − Δx_aff∘Δs_aff.
		for i := range rxs {
			rxs[i] = sigma*mu - x[i]*s[i] - dxAff[i]*dsAff[i]
		}
		solveNewton(a, normal, dvec, rb, rc, rxs, x, s, rhsM, tmpN, dy, ds, dx)

		ap := 0.99 * maxStep(x, dx)
		ad := 0.99 * maxStep(s, ds)
		if ap > 1 {
			ap = 1
		}
		if ad > 1 {
			ad = 1
		}
		if ap < 1e-14 && ad < 1e-14 {
			// Degenerate corrector direction: retry with a pure centering
			// step before giving up.
			for i := range rxs {
				rxs[i] = 0.9*mu - x[i]*s[i]
			}
			solveNewton(a, normal, dvec, rb, rc, rxs, x, s, rhsM, tmpN, dy, ds, dx)
			ap = math.Min(1, 0.99*maxStep(x, dx))
			ad = math.Min(1, 0.99*maxStep(s, ds))
		}
		if ap < 1e-14 && ad < 1e-14 {
			// Accept the iterate if it is already good at a relaxed
			// tolerance; otherwise report the numerical failure.
			if pinf < 1e-6 && dinf < 1e-6 && gap < 1e-6 {
				sol.Status = Optimal
				sol.Obj = linalg.Dot(c, x)
				return sol, nil
			}
			sol.Status = NumericalFailure
			sol.Obj = linalg.Dot(c, x)
			return sol, &resilience.SolveError{
				Stage: "lp.mehrotra", Class: resilience.ClassStepCollapse, Iters: sol.Iters,
				Residuals: rres, CondEst: condEstOf(normal),
				Err: errors.New("step size collapsed"),
			}
		}
		for i := range x {
			x[i] += ap * dx[i]
			s[i] += ad * ds[i]
		}
		for i := range y {
			y[i] += ad * dy[i]
		}
	}
	// Budget exhausted. Surface the final iterate's residuals so the caller
	// can distinguish "nearly converged — acceptable" from "nowhere near".
	sol.Status = IterationLimit
	sol.Obj = linalg.Dot(c, x)
	if linalg.AllFinite(x) && linalg.AllFinite(s) && linalg.AllFinite(y) {
		sol.Residuals = residualsAt()
	}
	return sol, nil
}

// solveUnconstrained handles the degenerate m = 0 problem: min cᵀx over
// x ≥ 0 is 0 at x = 0 unless some cost is negative, in which case the
// problem is unbounded.
func solveUnconstrained(n int, c []float64) *Solution {
	sol := &Solution{X: make([]float64, n), Y: nil, S: linalg.Clone(c)}
	for _, ci := range c {
		if ci < 0 {
			sol.Status = Unbounded
			return sol
		}
	}
	sol.Status = Optimal
	return sol
}

// solveNewton solves one Newton system of the predictor–corrector scheme:
//
//	A·D·Aᵀ Δy = −rb − A(S⁻¹ rxs) − A(D rc)
//	Δs = −rc − AᵀΔy
//	Δx = S⁻¹ rxs − D Δs
func solveNewton(a *SparseMatrix, normal NormalSolver, d, rb, rc, rxs, x, s, rhsM, tmpN, dy, ds, dx []float64) {
	for i := range tmpN {
		//sorallint:ignore divguard interior-point invariant: s is strictly positive at every Newton solve
		tmpN[i] = rxs[i]/s[i] + d[i]*rc[i]
	}
	a.MulVec(rhsM, tmpN)
	for i := range rhsM {
		rhsM[i] = -rb[i] - rhsM[i]
	}
	normal.Solve(dy, rhsM)
	a.MulVecTrans(ds, dy)
	for i := range ds {
		ds[i] = -rc[i] - ds[i]
	}
	for i := range dx {
		//sorallint:ignore divguard interior-point invariant: s is strictly positive at every Newton solve
		dx[i] = rxs[i]/s[i] - d[i]*ds[i]
	}
}

// maxStep returns the largest α ≥ 0 with v + α·dv ≥ 0 (capped at 1e30).
func maxStep(v, dv []float64) float64 {
	alpha := 1e30
	for i := range v {
		if dv[i] < 0 {
			if a := -v[i] / dv[i]; a < alpha {
				alpha = a
			}
		}
	}
	return alpha
}

func shiftPositive(v []float64) {
	minV := linalg.MinElem(v)
	delta := math.Max(-1.5*minV, 0.1)
	sum := 0.0
	for i := range v {
		v[i] += delta
		sum += v[i]
	}
	if sum <= 0 {
		for i := range v {
			v[i] = 1
		}
		return
	}
	// Keep the point comfortably inside the positive cone.
	for i := range v {
		if v[i] < 1e-2 {
			v[i] = 1e-2
		}
	}
}

// Solve converts the general-form problem to standard form, solves it with
// the dense backend, and maps the solution back to the original variables.
func Solve(p *Problem, opts Options) (*GeneralSolution, error) {
	std, err := p.ToStandard()
	if err != nil {
		return nil, err
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	var normal NormalSolver
	if opts.Work != nil {
		normal = opts.Work.normalFor(std.A, opts.Workers)
	} else {
		dn := NewDenseNormal(std.A)
		dn.Workers = opts.Workers
		normal = dn
	}
	var sol *Solution
	opts.Obs.Phase(opts.Ctx, "lp-mehrotra", func() {
		sol, err = SolveStandard(std, normal, opts)
	})
	if err != nil {
		return nil, err
	}
	x := std.Recover(sol.X)
	return &GeneralSolution{
		Status:    sol.Status,
		X:         x,
		Obj:       p.Objective(x),
		Iters:     sol.Iters,
		Residuals: sol.Residuals,
	}, nil
}

// GeneralSolution is a solve result in the original variable space.
type GeneralSolution struct {
	Status Status
	X      []float64
	Obj    float64
	Iters  int

	// Residuals at the final iterate (interior-point solves only); on an
	// IterationLimit status they quantify how far from optimal the returned
	// point is.
	Residuals resilience.Residuals
}
