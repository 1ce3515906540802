package resilience

import (
	"context"
	"errors"
	"fmt"
)

// FailureClass partitions solver failures into the categories the fallback
// ladders route on.
type FailureClass int8

const (
	// ClassUnknown is an unclassified failure.
	ClassUnknown FailureClass = iota
	// ClassFactorization means a linear-system factorization (Cholesky, LU,
	// block-tridiagonal) broke down.
	ClassFactorization
	// ClassStepCollapse means the line search / step size shrank to zero
	// before the iterate converged.
	ClassStepCollapse
	// ClassNonFinite means a NaN or ±Inf appeared in the iterate.
	ClassNonFinite
	// ClassIterationLimit means the iteration budget ran out.
	ClassIterationLimit
	// ClassInfeasible means the solver concluded (possibly heuristically)
	// that no feasible point exists.
	ClassInfeasible
	// ClassCanceled means the context deadline expired or was canceled.
	ClassCanceled
	// ClassPanic means a runtime panic was recovered inside the solver.
	ClassPanic
)

func (c FailureClass) String() string {
	switch c {
	case ClassFactorization:
		return "factorization"
	case ClassStepCollapse:
		return "step-collapse"
	case ClassNonFinite:
		return "non-finite"
	case ClassIterationLimit:
		return "iteration-limit"
	case ClassInfeasible:
		return "infeasible"
	case ClassCanceled:
		return "canceled"
	case ClassPanic:
		return "panic"
	}
	return "unknown"
}

// Residuals are the normalized convergence measures at the point a solver
// stopped: primal infeasibility, dual infeasibility, and complementarity
// (duality) gap. Zero values mean "not measured".
type Residuals struct {
	Primal float64
	Dual   float64
	Gap    float64
}

// Below reports whether every measured residual is under tol.
func (r Residuals) Below(tol float64) bool {
	return r.Primal <= tol && r.Dual <= tol && r.Gap <= tol
}

func (r Residuals) String() string {
	return fmt.Sprintf("pinf=%.3g dinf=%.3g gap=%.3g", r.Primal, r.Dual, r.Gap)
}

// SolveError is the structured error every solver in this repository returns
// on failure. It wraps the underlying cause and carries enough diagnostics
// (stage, class, iteration count, residuals, condition estimate) for a
// fallback ladder or an operator to decide what to do next.
type SolveError struct {
	Stage     string       // e.g. "lp.mehrotra", "convex.barrier"
	Class     FailureClass // what kind of failure
	Iters     int          // iterations the solve ran, the failing one included
	Residuals Residuals    // convergence state at the failure point
	CondEst   float64      // condition estimate of the last factorized system (0 = unknown)
	Err       error        // underlying cause (may be nil)
}

func (e *SolveError) Error() string {
	msg := fmt.Sprintf("%s: %s after %d iterations", e.Stage, e.Class, e.Iters)
	if e.Residuals != (Residuals{}) {
		msg += " (" + e.Residuals.String() + ")"
	}
	if e.CondEst > 0 {
		msg += fmt.Sprintf(" (cond≈%.3g)", e.CondEst)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *SolveError) Unwrap() error { return e.Err }

// AsSolveError extracts a *SolveError from an error chain.
func AsSolveError(err error) (*SolveError, bool) {
	var se *SolveError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// IterationsOf returns the iterations a failed solve ran: the Iters of the
// SolveError in err's chain, 0 when there is none (a build or validation
// error runs no iteration).
func IterationsOf(err error) int {
	if se, ok := AsSolveError(err); ok {
		return se.Iters
	}
	return 0
}

// IsSolveFailure reports whether err is (or wraps) a SolveError — a numeric
// solver breakdown, as opposed to a modeling/validation error. The online
// degradation path only engages for solve failures: a malformed instance
// must still abort loudly.
func IsSolveFailure(err error) bool {
	_, ok := AsSolveError(err)
	return ok
}

// IsCanceled reports whether err is (or wraps) a SolveError carrying a
// context cancellation. Degradation paths abort on cancellation instead of
// working around it: the caller asked the pipeline to stop.
func IsCanceled(err error) bool {
	se, ok := AsSolveError(err)
	return ok && se.Class == ClassCanceled
}

// FromPanic converts a recovered panic value into a typed SolveError that
// carries iters, the iterations the solve ran before it panicked. The
// solvers install it in a deferred recover so that index/dimension panics in
// internal/linalg surface as errors, and a panicking attempt still reports
// the iterations its iteration events already counted.
func FromPanic(stage string, iters int, v any) *SolveError {
	err, ok := v.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", v)
	}
	return &SolveError{Stage: stage, Class: ClassPanic, Iters: iters, Err: err}
}

// Interrupted returns a typed cancellation error when ctx is done, nil
// otherwise. A nil context never interrupts. Solvers call this at the top of
// every iteration so long solves honor deadlines promptly.
func Interrupted(ctx context.Context, stage string, iters int) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return &SolveError{Stage: stage, Class: ClassCanceled, Iters: iters, Err: ctx.Err()}
	default:
		return nil
	}
}
