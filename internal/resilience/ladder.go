package resilience

import (
	"fmt"
	"strings"
	"time"

	"soral/internal/obs"
)

// Rung is one recovery tactic of a fallback ladder: a name for reporting and
// a closure that attempts the solve. Run returns the solver iterations it
// ran, failed or not: its solvers' returned counts, or SolveError.Iters on
// a failure (IterationsOf). A rung succeeds when it returns a nil error; the
// ladder stops at the first success.
type Rung[T any] struct {
	Name string
	Run  func() (T, int, error)
}

// Attempt records the outcome of one rung.
type Attempt struct {
	Rung string
	Err  error // nil when the rung succeeded
	// Duration is the rung's wall time; Iterations the solver iterations it
	// ran, as the rung's Run returned them.
	Duration   time.Duration
	Iterations int
}

// LadderReport records every rung tried for one solve and which one (if any)
// finally produced a solution.
type LadderReport struct {
	Stage    string
	Attempts []Attempt
	Rung     string // name of the succeeding rung; "" when the whole ladder failed
}

// Iterations sums the solver iterations of every attempt (0 on a nil
// report).
func (r *LadderReport) Iterations() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, a := range r.Attempts {
		n += a.Iterations
	}
	return n
}

// Failed reports whether every rung failed.
func (r *LadderReport) Failed() bool { return r == nil || r.Rung == "" }

// Recovered reports whether a fallback rung (any rung past the first)
// produced the solution.
func (r *LadderReport) Recovered() bool {
	return r != nil && r.Rung != "" && len(r.Attempts) > 1
}

func (r *LadderReport) String() string {
	if r == nil {
		return "<no ladder>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", r.Stage)
	for _, a := range r.Attempts {
		if a.Err == nil {
			fmt.Fprintf(&b, " [%s ok]", a.Rung)
		} else {
			fmt.Fprintf(&b, " [%s: %v]", a.Rung, a.Err)
		}
	}
	if r.Failed() {
		b.WriteString(" — all rungs failed")
	}
	return b.String()
}

// ClimbObs runs the rungs in order until one succeeds, recording every
// attempt. On total failure it returns the zero value, the full report, and
// an error wrapping the last rung's cause. A cancellation (ClassCanceled)
// aborts the ladder immediately: retrying after a deadline has expired is
// pointless and would only delay the caller further.
//
// Each attempt's wall time and the iterations its rung reported are recorded
// on the report and emitted as rung events through sc; a nil scope records
// only the report.
func ClimbObs[T any](stage string, sc *obs.Scope, rungs []Rung[T]) (T, *LadderReport, error) {
	rep := &LadderReport{Stage: stage}
	var zero T
	var lastErr error
	for _, rung := range rungs {
		start := time.Now()
		v, iters, err := rung.Run()
		a := Attempt{Rung: rung.Name, Err: err, Duration: time.Since(start), Iterations: iters}
		rep.Attempts = append(rep.Attempts, a)
		status := "ok"
		if err != nil {
			status = "error"
			if se, ok := AsSolveError(err); ok {
				status = se.Class.String()
			}
		}
		sc.Rung(stage, rung.Name, status, a.Duration, a.Iterations)
		if err == nil {
			rep.Rung = rung.Name
			return v, rep, nil
		}
		lastErr = err
		if se, ok := AsSolveError(err); ok && se.Class == ClassCanceled {
			break
		}
	}
	return zero, rep, fmt.Errorf("resilience: %s: all %d rungs failed: %w", stage, len(rep.Attempts), lastErr)
}
