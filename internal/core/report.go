package core

import (
	"fmt"
	"strings"
	"time"

	"soral/internal/resilience"
)

// SlotStatus classifies how one slot's decision was produced.
type SlotStatus int8

const (
	// SlotOK means the primary solve succeeded directly.
	SlotOK SlotStatus = iota
	// SlotRecovered means a fallback rung of the solve ladder produced the
	// decision (the guarantee-relevant subproblem was still solved).
	SlotRecovered
	// SlotDegraded means every solver rung failed and the previous slot's
	// decision was carried forward, projected to feasibility for the
	// realized inputs. The decision is feasible but no longer the P2(t)
	// optimum, so Theorem 1's per-slot argument does not cover this slot.
	SlotDegraded
)

func (s SlotStatus) String() string {
	switch s {
	case SlotOK:
		return "ok"
	case SlotRecovered:
		return "recovered"
	case SlotDegraded:
		return "degraded"
	}
	return "unknown"
}

// SlotReport records the resilience outcome of one slot.
type SlotReport struct {
	Slot   int
	Status SlotStatus
	// Rung names the ladder rung (or degradation tactic) that produced the
	// decision; empty for an untroubled primary solve.
	Rung string
	// Ladder is the full solve ladder transcript (nil when the primary
	// solve succeeded on the first attempt with nothing to report).
	Ladder *resilience.LadderReport
	// Err is the terminal solver error that forced degradation (nil unless
	// Status == SlotDegraded).
	Err error
	// Duration is the slot's wall time from Step's entry to its commit
	// (cache lookup, solve ladder and any degradation), read on Step's own
	// clock with or without an obs scope.
	Duration time.Duration
	// Iterations counts the solver iterations (Newton + LP) the slot ran:
	// the sum of the P2 ladder's and the repair ladders' attempts, each as
	// its solver returned it, failed and panicked attempts included (a
	// panicking solve reports the iterations it ran before the panic). It
	// does not depend on an obs scope. With one, it equals the slot's delta
	// of the obs.MetricSolverIters counter. The simplex rung's pivots are in
	// neither count.
	Iterations int
	// Warm marks a slot committed by the warm-start layer: the carried
	// previous-decision point was accepted by the primary rung, or the
	// decision cache short-circuited the solve (Rung == RungCache). Always
	// false when Options.WarmStart is off.
	Warm bool
	// SolveIters counts the Newton steps of the attempt that produced the
	// committed decision: the primal–dual loop's on a warm commit, the
	// barrier's otherwise. Zero on cache hits (no solve ran) and on degraded
	// slots.
	SolveIters int
}

// Report is the per-run resilience record of an online run: one entry per
// decided slot. A run whose report has no degraded slots satisfied the
// conditions of Theorem 1 at every slot.
type Report struct {
	Slots []SlotReport
}

// Degraded returns the indexes of the slots that were carried forward.
func (r *Report) Degraded() []int {
	var out []int
	for _, s := range r.Slots {
		if s.Status == SlotDegraded {
			out = append(out, s.Slot)
		}
	}
	return out
}

// Recovered returns the indexes of the slots rescued by a fallback rung.
func (r *Report) Recovered() []int {
	var out []int
	for _, s := range r.Slots {
		if s.Status == SlotRecovered {
			out = append(out, s.Slot)
		}
	}
	return out
}

// TotalIterations sums the solver iterations over every decided slot.
func (r *Report) TotalIterations() int {
	var n int
	for _, s := range r.Slots {
		n += s.Iterations
	}
	return n
}

// TotalDuration sums the per-slot wall times.
func (r *Report) TotalDuration() time.Duration {
	var d time.Duration
	for _, s := range r.Slots {
		d += s.Duration
	}
	return d
}

// Clean reports whether every slot was solved by the primary path.
func (r *Report) Clean() bool {
	for _, s := range r.Slots {
		if s.Status != SlotOK {
			return false
		}
	}
	return true
}

func (r *Report) String() string {
	if r == nil || len(r.Slots) == 0 {
		return "core: no slots decided"
	}
	deg, rec := r.Degraded(), r.Recovered()
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d slots, %d recovered, %d degraded", len(r.Slots), len(rec), len(deg))
	if len(deg) > 0 {
		fmt.Fprintf(&b, " %v", deg)
	}
	if n := r.TotalIterations(); n > 0 {
		fmt.Fprintf(&b, ", %d solver iterations in %v", n, r.TotalDuration().Round(time.Microsecond))
	}
	return b.String()
}
