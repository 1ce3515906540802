package control

import (
	"fmt"

	"soral/internal/core"
	"soral/internal/lp"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/journal"
	"soral/internal/resilience"
	"soral/internal/staircase"
)

// Config carries the problem instance and solver settings shared by all
// controllers.
type Config struct {
	Net *model.Network
	In  *model.Inputs // true inputs (costs are always charged on these)

	LPOpts   lp.Options   // LP solver tuning
	CoreOpts core.Options // regularized-subproblem tuning (RFHC/RRHC)

	// Obs, when non-nil, wraps every controller run in a per-horizon span
	// labeled with the algorithm name and is threaded into the LP and core
	// solves (unless those Options already carry their own scope). The sink
	// must be goroutine-safe: LCP-M's prefix solves emit concurrently.
	Obs *obs.Scope

	// Journal, when non-nil, is threaded into the core solves so the online
	// pipeline flight-records every committed slot (unless CoreOpts already
	// carries its own writer). Controllers that commit slots outside
	// core.Online (the predictive family) are journaled post-hoc by the
	// evaluation harness instead.
	Journal *journal.Writer

	// Health, when non-nil, is threaded into the core solves so /healthz
	// reflects the online pipeline's degradation state.
	Health *resilience.Health

	// StairCache, when non-nil, reuses the staircase backend's structural
	// work (partition, column ownership, factorization skeleton) across
	// same-shaped window solves (see staircase.Cache). Checkout semantics
	// keep LCP-M's concurrent prefix solves safe, and reuse is bit-identical
	// to a fresh build. Nil rebuilds every window, the pre-warm-start
	// behavior.
	StairCache *staircase.Cache
}

// denseWindowLimit is the largest window solved with the dense LP backend;
// longer windows use the staircase backend.
const denseWindowLimit = 3

// lpOpts returns the LP options with the config's scope injected.
func (c *Config) lpOpts() lp.Options {
	o := c.LPOpts
	if o.Obs == nil {
		o.Obs = c.Obs
	}
	return o
}

// coreOpts returns the core options with the config's telemetry, journal,
// and health sinks injected.
func (c *Config) coreOpts() core.Options {
	o := c.CoreOpts
	if o.Obs == nil {
		o.Obs = c.Obs
	}
	if o.Journal == nil {
		o.Journal = c.Journal
	}
	if o.Health == nil {
		o.Health = c.Health
	}
	return o
}

// span opens the per-horizon span for one controller run.
func (c *Config) span(alg string) obs.Span {
	return c.Obs.Solver(alg).StartSpan("control.horizon")
}

// solveLayout solves a built P1 layout with the appropriate backend. Dense
// windows go straight through the LP fallback ladder (rescaling, loosened
// tolerance, simplex); a failed staircase solve falls back to the same
// ladder on the flat problem, so a degenerate window degrades to a slower
// solve instead of an aborted run.
func (c *Config) solveLayout(l *model.Layout) ([]*model.Decision, float64, error) {
	var sol *lp.GeneralSolution
	var err error
	lpo := c.lpOpts()
	if l.W <= denseWindowLimit {
		sol, _, err = lp.SolveResilient(l.Prob, lpo)
	} else {
		sol, err = staircase.SolveCached(c.StairCache, l.Prob, l.SlotOfCons, l.SlotOfVar, l.W, lpo)
		if err != nil || sol.Status != lp.Optimal {
			sol, _, err = lp.SolveResilient(l.Prob, lpo)
		}
	}
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("control: window solve status %v", sol.Status)
	}
	return l.ExtractDecisions(sol.X), sol.Obj, nil
}

// solveWindow solves P1 over the given (possibly predicted) inputs.
func (c *Config) solveWindow(in *model.Inputs, prev, endPin *model.Decision) ([]*model.Decision, float64, error) {
	l, err := model.BuildP1(c.Net, in, prev, endPin)
	if err != nil {
		return nil, 0, err
	}
	return c.solveLayout(l)
}

// Offline solves P1 over the full horizon with perfect hindsight and
// returns the decisions and the optimal objective value.
func Offline(c *Config) ([]*model.Decision, float64, error) {
	span := c.span("offline")
	defer span.End()
	return c.solveWindow(c.In, nil, nil)
}

// Greedy runs the sequence of one-shot optimizations: at every slot it
// minimizes that slot's cost (allocation plus reconfiguration from the
// applied previous decision) with no view of the future.
func Greedy(c *Config) ([]*model.Decision, error) {
	span := c.span("greedy")
	defer span.End()
	prev := model.NewZeroDecision(c.Net)
	out := make([]*model.Decision, 0, c.In.T)
	for t := 0; t < c.In.T; t++ {
		seq, _, err := c.solveWindow(c.In.Window(t, 1), prev, nil)
		if err != nil {
			return nil, fmt.Errorf("control: greedy slot %d: %w", t, err)
		}
		out = append(out, seq[0])
		prev = seq[0]
	}
	return out, nil
}
