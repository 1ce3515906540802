package core

import (
	"fmt"

	"soral/internal/convex"
	"soral/internal/lp"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/resilience"
)

// looseTolFactor scales the solver tolerance on the last ladder rung.
const looseTolFactor = 100

// P2 ladder rung names.
const (
	RungWarm          = "warm"
	RungRestartCenter = "restart-center"
	RungLooseTol      = "loose-tol"
)

// Degradation tactic names recorded in SlotReport.Rung.
const (
	DegradeCarry   = "carry-forward"
	DegradeProject = "carry-forward+project"
	DegradeOneShot = "one-shot"
	DegradeSpread  = "spread"
)

// RungCache marks a slot short-circuited by the warm-start decision cache:
// no solve ran, the committed decision is the cached (bit-identical) result
// of an earlier slot with the same inputs and previous decision.
const RungCache = "cache"

// feasTol is the absolute slot-feasibility tolerance a ladder rung's
// decision must meet to be accepted.
const feasTol = 1e-4

// SolveP2Resilient solves the regularized subproblem for one slot through a
// fallback ladder:
//
//  1. warm — the barrier solve from the structured start P2.ColdStart
//     (Online.Step, on a warm-start run, first solves the carried point
//     with the primal–dual loop, its multipliers starting from the
//     previous slot's exit duals where the rows repeat); a structured
//     start that breaks a
//     capacity is solved by the primal–dual loop, as convex.Solve would
//     (convex.StartsBarrier);
//  2. restart-center — the primal–dual loop (convex.SolvePrimalDual) from
//     the same structured start: a second interior-point method, whose
//     steps follow residuals rather than the barrier's central path, so a
//     fault or stall of the barrier's Newton iteration does not repeat.
//     Where the first rung already ran this solve, the rung is left out;
//  3. loose-tol — the primal–dual loop again, at 100× the tolerance
//     (looseTolFactor) and twice the Newton budget.
//
// A rung only succeeds if its solve converged AND the extracted decision
// is feasible for the realized slot inputs within 1e-4. Build/validation
// errors are returned directly with a nil report: a malformed instance must
// not be retried.
//
// SolveP2Resilient is stateless: it builds P2 afresh and never carries a
// warm point, whatever opts.WarmStart says. Online.Step runs the same
// ladder with its P2 skeleton and per-run warm-start state (DESIGN.md §13).
func SolveP2Resilient(n *model.Network, in *model.Inputs, t int, prev *model.Decision, opts Options) (*model.Decision, *resilience.LadderReport, error) {
	dec, ladder, _, err := solveP2(n, in, t, prev, opts, nil, nil, nil)
	return dec, ladder, err
}

// p2Commit describes the solve attempt that produced a slot's decision:
// its Newton iterations, whether it started from the carried warm point,
// and its exit duals (Result.Duals: the primal–dual loop's z, or the
// barrier's 1/(t·s)).
type p2Commit struct {
	iters int
	warm  bool
	duals []float64
}

// solveP2 is SolveP2Resilient with the run's P2 skeleton and the warm-start
// layer's per-run state st (nil for either runs stateless). With skel, P2
// is patched from the cached skeleton *skel when its topology repeats and
// a fresh build replaces it otherwise. With st, the warm rung first solves
// from the carried previous-decision point with the primal–dual loop
// (convex.SolvePrimalDual), its multipliers starting from z0 (the carried
// duals, or nil for the loop's own start), falling back to the solve from the
// structured start inside the same rung on any failure, so the rungs
// below never see a warm-start artifact. Every attempt on the ladder
// reports the Newton iterations its solves ran, failed ones
// included, as the solver returned them (Result.NewtonIters or
// SolveError.Iters). solveP2 also returns the committing attempt.
func solveP2(n *model.Network, in *model.Inputs, t int, prev *model.Decision, opts Options, skel **P2, st *solveState, z0 []float64) (*model.Decision, *resilience.LadderReport, p2Commit, error) {
	asm := opts.Obs.StartSpan("core.assemble")
	var p2 *P2
	if skel != nil && *skel != nil && (*skel).Patch(in, t, prev) {
		// Same constraint topology as the cached skeleton: numerics were
		// refreshed in place, bit-identical to a fresh build.
		p2 = *skel
		opts.Obs.Count(obs.MetricWarmSkeletonHits, 1)
	} else {
		var err error
		p2, err = BuildP2(n, in, t, prev, opts.Params)
		if err != nil {
			asm.End()
			return nil, nil, p2Commit{}, err
		}
		if skel != nil {
			*skel = p2
		}
	}
	x0 := p2.ColdStart(in, t)
	// coldPD: the first rung's structured solve already is restart-center's.
	coldPD := !convex.StartsBarrier(p2.Prob, x0)
	var warmX0 []float64
	if st != nil && t > 0 {
		// Slot 0 has only the all-zero decision to carry — the structured
		// start is strictly better there, so the carry engages from slot 1
		// (and from the first slot after a Restore, whose prev is real).
		warmX0 = st.warmPoint(p2, in, t, prev)
		if warmX0 == nil {
			opts.Obs.Count(obs.MetricWarmMisses, 1)
		}
	}
	asm.End()

	// attempt runs one solve from start and returns its decision and the
	// Newton iterations it ran, failed or not: the primal–dual loop when
	// pd is set, convex.Solve otherwise. warm marks the solve from the
	// carried warm point, whose multipliers start from z0. A success is
	// the slot's commit, so it is noted in commit.
	var commit p2Commit
	attempt := func(solverOpts convex.Options, start []float64, pd, warm bool) (*model.Decision, int, error) {
		if solverOpts.Obs == nil {
			solverOpts.Obs = opts.Obs
		}
		stage, phase := "convex.barrier", "p2-barrier"
		if pd {
			stage, phase = "convex.primaldual", "p2-primaldual"
		}
		var res *convex.Result
		var serr error
		opts.Obs.Phase(solverOpts.Ctx, phase, func() {
			switch {
			case !pd:
				res, serr = convex.Solve(p2.Prob, start, solverOpts)
			case warm:
				res, serr = convex.SolvePrimalDual(p2.Prob, start, z0, solverOpts)
			default:
				res, serr = convex.SolvePrimalDual(p2.Prob, start, nil, solverOpts)
			}
		})
		if serr != nil {
			return nil, resilience.IterationsOf(serr), serr
		}
		if !res.Converged {
			return nil, res.NewtonIters, &resilience.SolveError{
				Stage: stage, Class: resilience.ClassIterationLimit,
				Iters: res.NewtonIters,
				Err:   fmt.Errorf("solve stopped before reaching tol %g", solverOpts.Tol),
			}
		}
		dec := p2.Extract(res.X)
		if ok, v := dec.FeasibleAt(n, in.Workload[t], feasTol); !ok {
			return nil, res.NewtonIters, &resilience.SolveError{
				Stage: "core.p2", Class: resilience.ClassInfeasible,
				Iters: res.NewtonIters,
				Err:   fmt.Errorf("extracted decision violates slot %d constraints by %g", t, v),
			}
		}
		commit = p2Commit{iters: res.NewtonIters, warm: warm, duals: res.Duals}
		return dec, res.NewtonIters, nil
	}

	rungs := []resilience.Rung[*model.Decision]{
		{Name: RungWarm, Run: func() (*model.Decision, int, error) {
			spent := 0
			if warmX0 != nil {
				dec, iters, werr := attempt(warmOptions(opts.Solver), warmX0, true, true)
				if werr == nil {
					opts.Obs.Count(obs.MetricWarmHits, 1)
					return dec, iters, nil
				}
				if resilience.IsCanceled(werr) {
					return nil, iters, werr
				}
				// Safeguarded fallback: the carried point stalled — retry
				// the structured cold start inside the same rung, so the
				// ladder above is untouched by warm-start failures.
				opts.Obs.Count(obs.MetricWarmFallbacks, 1)
				spent = iters
			}
			dec, iters, err := attempt(opts.Solver, x0, coldPD, false)
			return dec, spent + iters, err
		}},
	}
	if !coldPD {
		rungs = append(rungs, resilience.Rung[*model.Decision]{
			Name: RungRestartCenter, Run: func() (*model.Decision, int, error) {
				return attempt(opts.Solver, x0, true, false)
			}})
	}
	loose := opts.Solver
	loose.Tol = loose.Tol * looseTolFactor
	if loose.Tol <= 0 {
		loose.Tol = 1e-7 * looseTolFactor
	}
	if loose.MaxNewton <= 0 {
		loose.MaxNewton = 160 // 2× the default
	} else {
		loose.MaxNewton *= 2
	}
	rungs = append(rungs, resilience.Rung[*model.Decision]{
		Name: RungLooseTol, Run: func() (*model.Decision, int, error) {
			return attempt(loose, x0, true, false)
		}})
	dec, ladder, err := resilience.ClimbObs(fmt.Sprintf("core.p2[t=%d]", t), opts.Obs, rungs)
	if err == nil && st != nil && !commit.warm {
		st.lastColdIters = commit.iters
	}
	return dec, ladder, commit, err
}

// carryForward implements graceful degradation for one slot: reuse the
// previous decision, minimally raised to cover the realized inputs. It
// tries, in order: the decision as-is (already feasible), the repair LP with
// the previous decision as lower bounds (the same machinery as the
// controllers' repair step), an unconstrained one-shot LP, and finally the
// solver-free greedy spread. It returns the applied decision and the tactic
// name, and the iterations the repair LPs' ladder attempts ran. lpWork
// supplies the repair LPs' reusable buffers.
func carryForward(n *model.Network, in *model.Inputs, t int, prev *model.Decision, opts Options, lpWork *lp.Workspace) (*model.Decision, string, int, error) {
	if ok, _ := prev.FeasibleAt(n, in.Workload[t], 1e-7); ok {
		return prev.Clone(), DegradeCarry, 0, nil
	}
	lpWorkers := opts.Solver.Workers
	if lpWorkers < 0 {
		// convex treats negative as GOMAXPROCS; lp validates it away. The
		// degradation path must not fail on a config quirk, so normalize.
		lpWorkers = 0
	}
	lpOpts := lp.Options{Ctx: opts.Solver.Ctx, Obs: opts.Obs, Work: lpWork, Workers: lpWorkers}
	iters := 0
	if l, err := model.BuildP1(n, in.Window(t, 1), prev, nil); err == nil {
		l.LowerBoundPlan(prev)
		sol, rep, err := lp.SolveResilient(l.Prob, lpOpts)
		iters += rep.Iterations()
		if err == nil {
			return l.ExtractDecisions(sol.X)[0], DegradeProject, iters, nil
		}
	}
	if l, err := model.BuildP1(n, in.Window(t, 1), prev, nil); err == nil {
		sol, rep, err := lp.SolveResilient(l.Prob, lpOpts)
		iters += rep.Iterations()
		if err == nil {
			return l.ExtractDecisions(sol.X)[0], DegradeOneShot, iters, nil
		}
	}
	d := model.SpreadDecision(n, in.Workload[t])
	if ok, v := d.FeasibleAt(n, in.Workload[t], 1e-7); !ok {
		return nil, "", iters, fmt.Errorf("core: emergency spread allocation still infeasible by %g at slot %d", v, t)
	}
	return d, DegradeSpread, iters, nil
}
