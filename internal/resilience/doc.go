// Package resilience is the solver fault-handling substrate shared by the
// numerical packages (lp, convex) and the online pipeline (core,
// control). It provides four things:
//
//   - a structured error taxonomy (SolveError) that carries the failing
//     stage, a failure class, the iteration count, the final residuals and a
//     condition estimate, replacing bare fmt.Errorf strings so callers can
//     route on the *kind* of failure;
//   - panic conversion (FromPanic / the solvers' deferred recovers), so a
//     dimension-mismatch panic deep in internal/linalg surfaces as a typed
//     error instead of killing a whole online run;
//   - a generic fallback ladder (ClimbObs) that tries escalating recovery
//     tactics in order and records, per attempt, which rung failed and which
//     one finally produced a solution, with its wall time and the solver
//     iterations the rung reported running;
//   - a deterministic fault-injection plan (FaultPlan) hooked into the
//     solver Options, so tests can force factorization failures, NaN
//     iterates, iteration-budget exhaustion, mid-solve panics and verify
//     every rung of the ladder — with no build tags and no nondeterminism.
//
// The package depends only on the standard library and internal/obs (for the
// ladder's rung events), so every other internal package may import it
// freely.
package resilience
