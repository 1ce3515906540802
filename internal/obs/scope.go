package obs

import (
	"sync/atomic"
	"time"
)

// Well-known metric names shared across the solver stack.
const (
	// MetricSolverIters is the cross-solver iteration counter: every
	// Mehrotra and barrier-Newton iteration bumps it once
	// (via Scope.Iteration). Ladder rungs and slot spans report their
	// iteration budgets as deltas of this counter.
	MetricSolverIters = "solver.iterations"

	// MetricWorkers is the gauge holding the resolved worker count of the
	// most recent solve: the number of goroutines the parallel linalg
	// kernels (normal-equation assembly, blocked Cholesky, block-tridiagonal
	// factorization) may fan out to. 1 means fully serial.
	MetricWorkers = "solver.workers"

	// Warm-start counters (DESIGN.md §13). The online loop bumps them per
	// slot when core.Options.WarmStart is on; they stay absent from /metrics
	// on cold runs, keeping the exposition byte-identical to pre-warm builds.
	//
	// MetricWarmHits counts slots committed from a carried-over warm point.
	MetricWarmHits = "warmstart.hits"
	// MetricWarmMisses counts warm-enabled slots with no usable warm point
	// (first slot, post-restore slot, or a point outside the strict interior).
	MetricWarmMisses = "warmstart.misses"
	// MetricWarmFallbacks counts warm attempts that stalled and fell back to
	// the structured cold start inside the same ladder rung.
	MetricWarmFallbacks = "warmstart.fallbacks"
	// MetricWarmCacheHits counts slots short-circuited by the digest-keyed
	// decision cache, and MetricWarmCacheSize gauges its current population.
	MetricWarmCacheHits = "warmstart.cache_hits"
	MetricWarmCacheSize = "warmstart.cache_size"
	// MetricWarmSkeletonHits counts slots whose P2 assembly reused the cached
	// structural skeleton (rows and sparsity) with a numeric-only refresh.
	MetricWarmSkeletonHits = "warmstart.skeleton_hits"

	// Mehrotra-level warm-start counters (lp.Options.WarmStart): iterate
	// carry-over across consecutive same-shape standard-form solves.
	MetricWarmLPHits      = "warmstart.lp.hits"
	MetricWarmLPMisses    = "warmstart.lp.misses"
	MetricWarmLPFallbacks = "warmstart.lp.fallbacks"
	// MetricWarmStairHits counts staircase backends reused from a
	// staircase.Cache instead of being rebuilt from scratch.
	MetricWarmStairHits = "warmstart.stair_hits"
)

// Scope is a nil-safe handle onto the telemetry core. The nil *Scope is the
// disabled state: every method returns immediately without allocating, so
// instrumented code calls telemetry unconditionally. Solver and Slot derive
// labeled child scopes sharing the same registry, sink, clock, and sequence
// counter.
type Scope struct {
	core   *scopeCore
	solver string
	slot   int
}

type scopeCore struct {
	reg  *Registry
	sink Sink
	now  func() time.Time
	seq  atomic.Int64
}

// NewScope builds an enabled scope over a registry and a sink. Either may be
// nil: a nil registry discards metrics, a nil sink discards events.
func NewScope(reg *Registry, sink Sink) *Scope {
	return &Scope{
		core: &scopeCore{reg: reg, sink: sink, now: time.Now},
		slot: -1,
	}
}

// SetClock replaces the scope's wall clock, shared by every scope derived
// from the same NewScope call. For deterministic tests only; call it before
// emitting anything.
func (s *Scope) SetClock(now func() time.Time) {
	if s == nil || now == nil {
		return
	}
	s.core.now = now
}

// Enabled reports whether the scope records anything.
func (s *Scope) Enabled() bool { return s != nil }

// Registry returns the underlying metrics registry (nil on a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.core.reg
}

// Solver derives a child scope labeled with a solver/algorithm identity;
// events emitted through it carry the label in their "solver" field.
func (s *Scope) Solver(name string) *Scope {
	if s == nil {
		return nil
	}
	c := *s
	c.solver = name
	return &c
}

// Slot derives a child scope labeled with a time-slot index.
func (s *Scope) Slot(t int) *Scope {
	if s == nil {
		return nil
	}
	c := *s
	c.slot = t
	return &c
}

// Count increments a registry counter.
func (s *Scope) Count(name string, delta int64) {
	if s == nil || s.core.reg == nil {
		return
	}
	s.core.reg.Add(name, delta)
}

// CounterValue reads a registry counter (0 on a nil scope).
func (s *Scope) CounterValue(name string) int64 {
	if s == nil || s.core.reg == nil {
		return 0
	}
	return s.core.reg.Counter(name)
}

// SetGauge records the latest value of a registry gauge.
func (s *Scope) SetGauge(name string, v float64) {
	if s == nil || s.core.reg == nil {
		return
	}
	s.core.reg.SetGauge(name, v)
}

// RecordLatency records one observation (seconds) into a log-bucketed
// latency histogram: exact count over the whole run, tail quantiles (p999)
// at bucket precision, mergeable across registries.
func (s *Scope) RecordLatency(name string, seconds float64) {
	if s == nil || s.core.reg == nil {
		return
	}
	s.core.reg.RecordLatency(name, seconds)
}

// emit stamps and forwards an event to the sink.
func (s *Scope) emit(e Event) {
	c := s.core
	if c.sink == nil {
		return
	}
	e.Seq = c.seq.Add(1)
	e.TimeNS = c.now().UnixNano()
	if e.Solver == "" {
		e.Solver = s.solver
	}
	e.Slot = s.slot
	c.sink.Emit(e)
}

// Emit stamps a caller-constructed event (sequence number, time, scope
// labels) and forwards it to the sink. Prefer the typed helpers (Iteration,
// Rung, StartSpan) for the standard taxonomy.
func (s *Scope) Emit(e Event) {
	if s == nil {
		return
	}
	s.emit(e)
}

// IterStats carries the per-iteration convergence measures of one solver
// step; unused fields stay zero and are omitted from the JSONL encoding.
type IterStats struct {
	Stage             int     // outer stage of a nested iteration (barrier stage)
	Primal, Dual, Gap float64 // normalized residuals
	Decrement         float64 // squared Newton decrement
	Step              float64 // accepted line-search step size
}

// Iteration records one solver iteration: it bumps the shared
// MetricSolverIters counter, a per-solver "<name>.iterations" counter, and
// emits a KindIter trace event. Exactly this pairing keeps counter deltas
// and iter-event counts reconcilable.
func (s *Scope) Iteration(name string, iter int, st IterStats) {
	if s == nil {
		return
	}
	s.Count(MetricSolverIters, 1)
	s.Count(name+".iterations", 1)
	s.emit(Event{
		Kind: KindIter, Name: name, Iter: iter, Stage: st.Stage,
		Primal: st.Primal, Dual: st.Dual, Gap: st.Gap,
		Decrement: st.Decrement, Step: st.Step,
	})
}

// Rung records the outcome of one fallback-ladder rung attempt: status is
// "ok" or the failure class, d the rung's wall time, iters the solver
// iterations it consumed.
func (s *Scope) Rung(stage, rung, status string, d time.Duration, iters int) {
	if s == nil {
		return
	}
	s.Count("ladder.rungs", 1)
	if status != "ok" {
		s.Count("ladder.rung_failures", 1)
	}
	s.emit(Event{Kind: KindRung, Name: stage, Rung: rung, Status: status,
		DurNS: d.Nanoseconds(), Iters: iters})
}

// Span is an open interval of work started by StartSpan. The zero Span (from
// a nil scope) is valid and End on it is a no-op returning 0.
type Span struct {
	sc          *Scope
	name        string
	start       time.Time
	itersBefore int64
}

// StartSpan opens a span: it emits a KindSpanStart event and snapshots the
// clock and the shared iteration counter.
func (s *Scope) StartSpan(name string) Span {
	if s == nil {
		return Span{}
	}
	s.emit(Event{Kind: KindSpanStart, Name: name})
	return Span{sc: s, name: name, start: s.core.now(),
		itersBefore: s.CounterValue(MetricSolverIters)}
}

// End closes the span: it emits a KindSpanEnd event carrying the duration
// and the solver iterations consumed inside the span, records the duration
// into the "latency.<name>.seconds" log-bucketed histogram, and returns the
// duration. Only a span name's first End allocates (to create the
// histogram).
func (sp Span) End() time.Duration {
	if sp.sc == nil {
		return 0
	}
	d := sp.sc.core.now().Sub(sp.start)
	iters := sp.sc.CounterValue(MetricSolverIters) - sp.itersBefore
	sp.sc.emit(Event{Kind: KindSpanEnd, Name: sp.name,
		DurNS: d.Nanoseconds(), Iters: int(iters)})
	if reg := sp.sc.core.reg; reg != nil {
		reg.spanHist(sp.name).Record(d.Seconds())
	}
	return d
}
