package lp

import (
	"fmt"
	"math"

	"soral/internal/resilience"
)

// Rung names recorded by SolveResilient's ladder reports.
const (
	RungIPM         = "ipm"
	RungRescale     = "rescale+ipm"
	RungLooseTol    = "loose-tol"
	RungAcceptLimit = "accept-iteration-limit"
	RungSimplex     = "simplex"
)

// simplexSizeLimit is the largest problem (in variables) handed to the dense
// two-phase simplex rung; beyond it the tableau is hopelessly slow.
const simplexSizeLimit = 4000

// acceptResidual is the residual level at which an iteration-limited
// interior-point iterate is accepted as effectively optimal by the
// accept-iteration-limit rung.
const acceptResidual = 1e-6

// SolveResilient solves a general-form LP through a fallback ladder:
//
//  1. ipm — the plain Mehrotra interior-point solve;
//  2. rescale+ipm — Ruiz row/column equilibration, then re-solve: repairs
//     the badly-scaled normal equations behind most Cholesky breakdowns;
//  3. loose-tol — re-solve at 1000× the tolerance (floored at 1e-6): trades
//     exactness for a dependable answer, the POP-style bargain;
//  4. accept-iteration-limit — accept an iteration-limited iterate whose
//     final residuals are already below 1e-6;
//  5. simplex — the two-phase dense simplex, immune to barrier-style
//     numerical failure, attempted only under the size limit.
//
// The report records every rung tried and which one produced the solution.
// A non-Optimal status counts as a rung failure so a later rung can still
// rescue the solve (e.g. IPM's crude infeasibility heuristic overruled by
// the simplex's exact phase-1 verdict).
func SolveResilient(p *Problem, opts Options) (*GeneralSolution, *resilience.LadderReport, error) {
	statusErr := func(rung string, sol *GeneralSolution) error {
		return &resilience.SolveError{
			Stage: "lp." + rung,
			Class: classOfStatus(sol.Status),
			Iters: sol.Iters, Residuals: sol.Residuals,
			Err: fmt.Errorf("status %v", sol.Status),
		}
	}
	var lastIPM *GeneralSolution
	ipmRung := func(rung string, o Options) (*GeneralSolution, int, error) {
		sol, err := Solve(p, o)
		if err != nil {
			return nil, resilience.IterationsOf(err), err
		}
		lastIPM = sol
		if sol.Status != Optimal {
			return nil, sol.Iters, statusErr(rung, sol)
		}
		return sol, sol.Iters, nil
	}

	rungs := []resilience.Rung[*GeneralSolution]{
		{Name: RungIPM, Run: func() (*GeneralSolution, int, error) {
			return ipmRung(RungIPM, opts)
		}},
		{Name: RungRescale, Run: func() (*GeneralSolution, int, error) {
			eq, err := equilibrate(p)
			if err != nil {
				return nil, 0, err
			}
			sol, err := Solve(eq.prob, opts)
			if err != nil {
				return nil, resilience.IterationsOf(err), err
			}
			if sol.Status != Optimal {
				return nil, sol.Iters, statusErr(RungRescale, sol)
			}
			return eq.recover(p, sol), sol.Iters, nil
		}},
		{Name: RungLooseTol, Run: func() (*GeneralSolution, int, error) {
			loose, err := opts.withDefaults()
			if err != nil {
				return nil, 0, err
			}
			loose.Tol = math.Max(loose.Tol*1e3, 1e-6)
			return ipmRung(RungLooseTol, loose)
		}},
		// Accepting an earlier rung's iterate runs no iteration.
		{Name: RungAcceptLimit, Run: func() (*GeneralSolution, int, error) {
			if lastIPM != nil && lastIPM.Status == IterationLimit && lastIPM.Residuals.Below(acceptResidual) {
				accepted := *lastIPM
				accepted.Status = Optimal
				return &accepted, 0, nil
			}
			return nil, 0, fmt.Errorf("lp: no acceptable iteration-limited iterate")
		}},
		{Name: RungSimplex, Run: func() (*GeneralSolution, int, error) {
			if p.NumVars() > simplexSizeLimit {
				return nil, 0, fmt.Errorf("lp: %d variables exceed the simplex rung limit %d", p.NumVars(), simplexSizeLimit)
			}
			if err := resilience.Interrupted(opts.Ctx, "lp.simplex", 0); err != nil {
				return nil, 0, err
			}
			sol, err := SolveSimplex(p, Options{Ctx: opts.Ctx})
			if err != nil {
				return nil, resilience.IterationsOf(err), err
			}
			if sol.Status != Optimal {
				return nil, sol.Iters, statusErr(RungSimplex, sol)
			}
			return sol, sol.Iters, nil
		}},
	}
	return resilience.ClimbObs("lp.solve", opts.Obs, rungs)
}

func classOfStatus(s Status) resilience.FailureClass {
	switch s {
	case Infeasible:
		return resilience.ClassInfeasible
	case IterationLimit:
		return resilience.ClassIterationLimit
	case NumericalFailure:
		return resilience.ClassFactorization
	}
	return resilience.ClassUnknown
}

// equilibrated is a Ruiz-scaled copy of a problem plus the column scales
// needed to map its solutions back: x_original = colScale ∘ x_scaled.
type equilibrated struct {
	prob     *Problem
	colScale []float64
}

// equilibrate builds a row/column-equilibrated copy of p: every constraint
// row is scaled by 1/√(max |a|) and then every column by 1/√(max |r·a|), so
// all matrix entries land near unit magnitude. Bounds and right-hand sides
// are scaled consistently; the objective is scaled by the column scales so
// the argmin is preserved exactly.
func equilibrate(p *Problem) (*equilibrated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumVars()
	rowScale := make([]float64, len(p.Cons))
	for r, con := range p.Cons {
		maxAbs := 0.0
		for _, e := range con.Entries {
			if a := math.Abs(e.Val); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs <= 0 {
			rowScale[r] = 1
		} else {
			rowScale[r] = 1 / math.Sqrt(maxAbs)
		}
	}
	colMax := make([]float64, n)
	for r, con := range p.Cons {
		for _, e := range con.Entries {
			if a := math.Abs(e.Val) * rowScale[r]; a > colMax[e.Index] {
				colMax[e.Index] = a
			}
		}
	}
	colScale := make([]float64, n)
	for j := range colScale {
		if colMax[j] <= 0 {
			colScale[j] = 1
		} else {
			colScale[j] = 1 / math.Sqrt(colMax[j])
		}
	}

	// Scaled problem over x' with x = colScale ∘ x'.
	sp := NewProblem(n)
	for j := 0; j < n; j++ {
		sp.C[j] = p.C[j] * colScale[j]
		sp.Lo[j] = scaleBound(p.Lo[j], colScale[j])
		sp.Hi[j] = scaleBound(p.Hi[j], colScale[j])
	}
	for r, con := range p.Cons {
		es := make([]Entry, len(con.Entries))
		for k, e := range con.Entries {
			es[k] = Entry{Index: e.Index, Val: e.Val * rowScale[r] * colScale[e.Index]}
		}
		sp.AddConstraint(es, con.Sense, con.RHS*rowScale[r], con.Name)
	}
	return &equilibrated{prob: sp, colScale: colScale}, nil
}

func scaleBound(b, colScale float64) float64 {
	if math.IsInf(b, 0) {
		return b
	}
	//sorallint:ignore divguard colScale entries are 1 or 1/√max|A| by construction, strictly positive
	return b / colScale
}

// recover maps a scaled-space solution back to the original variables and
// re-evaluates the objective there.
func (eq *equilibrated) recover(orig *Problem, sol *GeneralSolution) *GeneralSolution {
	x := make([]float64, len(sol.X))
	for j := range x {
		x[j] = sol.X[j] * eq.colScale[j]
	}
	return &GeneralSolution{
		Status:    sol.Status,
		X:         x,
		Obj:       orig.Objective(x),
		Iters:     sol.Iters,
		Residuals: sol.Residuals,
	}
}
