package core

import (
	"fmt"
	"time"

	"soral/internal/convex"
	"soral/internal/lp"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/attr"
	"soral/internal/obs/journal"
	"soral/internal/resilience"
)

// Options bundles the algorithm parameters with solver tuning and the
// run's telemetry sinks. It is configuration only: the per-run solve state
// and workspaces belong to Online.
type Options struct {
	Params Params
	Solver convex.Options

	// Obs, when non-nil, records one span per decided slot plus the nested
	// ladder-rung and solver-iteration events. It only records: every
	// SlotReport field, Duration and Iterations included, is the same with
	// or without it. Nil costs one branch per call.
	Obs *obs.Scope

	// Journal, when non-nil, receives one flight-recorder record per
	// committed slot (input/decision digests, objective terms, resilience
	// outcome, duration/iterations). The caller writes the run header and
	// footer; Online.Step writes only slot records. Nil disables journaling.
	Journal *journal.Writer

	// Health, when non-nil, tracks the run's degradation state for the
	// /healthz exposition endpoint. Nil disables tracking.
	Health *resilience.Health

	// WarmStart enables the incremental re-solve layer (DESIGN.md §13): a
	// warm interior point carried from the previous slot's committed
	// decision, with multipliers starting from that slot's exit duals
	// (with safeguarded fallback to the cold start), a digest-keyed
	// decision cache, and the fixed-point snap. Off (the default) every
	// slot is a cold solve from the structured start. The P2 skeleton is
	// reused either way, since a patched P2 is bit-identical to a fresh
	// build. Decisions stay a pure function of the previous checkpoint
	// (decision, and duals when on), the inputs and the config.
	WarmStart bool
}

// DefaultOptions uses the paper's ε = ε′ = 10⁻² and moderate solver
// tolerances (the cost objective is well-scaled in all our scenarios).
func DefaultOptions() Options {
	return Options{Params: DefaultParams(), Solver: convex.Options{Tol: 1e-7}}
}

// Online runs the prediction-free regularized online algorithm. It keeps
// only the previous slot's decision as state and can therefore be driven
// slot-by-slot as inputs arrive (Step) or over a full recorded horizon (Run).
type Online struct {
	Net  *model.Network
	In   *model.Inputs
	Opts Options

	prev   *model.Decision
	t      int
	report Report

	// Per-run solver workspaces, carried across slots so the slot loop
	// allocates no solver buffers after the first decision. work serves the
	// P2 solves, barrier and primal–dual, unless Opts.Solver carries its
	// own; lpWork serves the degradation path's repair LPs.
	work   *convex.Workspace
	lpWork *lp.Workspace

	// tracker attributes each committed slot's cost (per component, per
	// cloud) and accumulates the run's regret and competitive-ratio
	// estimates; lazily created at the first commit that records anywhere.
	tracker *attr.Tracker

	// p2 is the run's P2 skeleton (nil until the first build): each slot
	// patches its numbers in place when the constraint topology repeats,
	// bit-identical to a fresh BuildP2, and rebuilds it otherwise.
	p2 *P2

	// state is the warm-start layer's per-run state (nil unless
	// Opts.WarmStart); Restore replaces it with a fresh one holding only
	// the checkpointed duals, which is the "discard deterministically"
	// half of the resume contract.
	state *solveState
}

// NewOnline prepares a run over the given inputs starting from the all-zero
// allocation.
func NewOnline(n *model.Network, in *model.Inputs, opts Options) (*Online, error) {
	if err := in.Validate(n); err != nil {
		return nil, err
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	o := &Online{
		Net: n, In: in, Opts: opts, prev: model.NewZeroDecision(n),
		work: convex.NewWorkspace(), lpWork: lp.NewWorkspace(),
	}
	if opts.WarmStart {
		o.state = newSolveState()
	}
	return o, nil
}

// Prev returns the decision of the previous slot (the algorithm's state).
func (o *Online) Prev() *model.Decision { return o.prev }

// Restore primes the run mid-horizon: the next Step decides slot t, prev
// is the committed decision of slot t-1 and duals are the exit duals slot
// t-1 carried on, solved at P2(dualsSlot) (all recovered from a journal
// state checkpoint; nil duals for none). The online algorithm's whole
// restartable state is (t, prev), plus the duals on a WarmStart run — the
// regularized subproblem depends only on the realized inputs and the
// previous decision, and its warm solve also on the duals — so a restored
// run reproduces an uninterrupted one bit-for-bit. A run with WarmStart
// off reads no duals and ignores them.
func (o *Online) Restore(t int, prev *model.Decision, duals []float64, dualsSlot int) error {
	if t < 0 || t > o.In.T {
		return fmt.Errorf("core: restore slot %d outside horizon [0,%d]", t, o.In.T)
	}
	if prev == nil {
		return fmt.Errorf("core: restore needs the previous decision")
	}
	if err := prev.Validate(o.Net); err != nil {
		return fmt.Errorf("core: restored state invalid: %w", err)
	}
	if duals != nil && (dualsSlot < 0 || dualsSlot >= t) {
		return fmt.Errorf("core: restored duals of slot %d cannot start slot %d", dualsSlot, t)
	}
	o.t = t
	o.prev = prev
	// The P2 skeleton and the rest of the warm-start state are
	// accelerators over run history, not part of the restartable state,
	// and the journal does not checkpoint them. Discard them
	// deterministically: the resumed run rebuilds the skeleton and
	// re-solves its first slots (refilling the cache as it goes),
	// producing bit-identical decisions either way.
	o.p2 = nil
	if o.state != nil {
		o.state = newSolveState()
		o.state.setDuals(duals, dualsSlot)
	}
	return nil
}

// Slot returns the index of the next slot to be decided.
func (o *Online) Slot() int { return o.t }

// Report returns the per-run resilience record: one entry per decided slot,
// marking which were solved cleanly, recovered by a fallback rung, or
// degraded to a carried-forward decision.
func (o *Online) Report() *Report { return &o.report }

// Step solves P2(t) for the next slot and advances the state. Solver
// failures climb the fallback ladder; if the whole ladder fails, the
// previous decision — projected to feasibility for the realized inputs — is
// applied and the slot is marked Degraded in the run report, so a sequence
// never aborts on a numerical breakdown. Build/validation errors and
// context cancellation still abort. On WarmStart runs a solved decision
// within solver jitter of the previous one commits the previous decision
// bitwise (the fixed-point snap, DESIGN.md §13) and carries its incoming
// duals on. Step reads the clock once on entry and once at commit; that
// one measurement is the slot's Duration, its journaled dur_ns and its
// core.slot span's duration.
func (o *Online) Step() (*model.Decision, error) {
	if o.t >= o.In.T {
		return nil, fmt.Errorf("core: horizon exhausted at slot %d", o.t)
	}
	start := time.Now()
	slotScope := o.Opts.Obs.Slot(o.t)
	span := slotScope.StartSpan("core.slot")
	var key cacheKey
	var z0 []float64
	if o.state != nil {
		z0 = o.state.startDuals(o.Net, o.In, o.t)
		key = o.state.cacheKey(o.In, o.t, o.prev, z0)
		if e, ok := o.state.lookup(key, z0); ok {
			// Digest-keyed cache hit: an earlier slot already solved this
			// exact (inputs, previous decision, incoming duals) triple, so
			// the committed decision and outgoing duals are bit-identical
			// to what a fresh solve would return.
			slotScope.Count(obs.MetricWarmCacheHits, 1)
			slotScope.SetGauge(obs.MetricWarmCacheSize, float64(o.state.size()))
			sr := SlotReport{Slot: o.t, Rung: RungCache, Warm: true, Duration: time.Since(start)}
			span.EndWith(sr.Duration)
			o.report.Slots = append(o.report.Slots, sr)
			o.state.hit(e, o.t)
			o.recordCommit(e.dec, sr, key.inputs, e.digest)
			o.state.prevDigest = e.digest
			o.prev = e.dec
			o.t++
			return e.dec, nil
		}
	}
	stepOpts := o.Opts
	stepOpts.Obs = slotScope
	if stepOpts.Solver.Work == nil {
		stepOpts.Solver.Work = o.work
	}
	solveSpan := slotScope.StartSpan("core.solve")
	dec, ladder, commit, err := solveP2(o.Net, o.In, o.t, o.prev, stepOpts, &o.p2, o.state, z0)
	solveSpan.End()
	sr := SlotReport{Slot: o.t, Ladder: ladder, Iterations: ladder.Iterations(),
		Warm: commit.warm, SolveIters: commit.iters}
	snapped := false
	switch {
	case err == nil:
		sr.Rung = ladder.Rung
		if ladder.Recovered() {
			sr.Status = SlotRecovered
		}
		if o.state != nil && snapToPrev(dec, o.prev) {
			// Fixed-point snap: whichever rung committed, a decision within
			// solver jitter of the previous one commits it bitwise, so
			// stationary stretches repeat digests the decision cache can
			// short-circuit.
			if ok, _ := o.prev.FeasibleAt(o.Net, o.In.Workload[o.t], feasTol); ok {
				dec = o.prev.Clone()
				snapped = true
			}
		}
	case !resilience.IsSolveFailure(err) || resilience.IsCanceled(err):
		span.End()
		return nil, fmt.Errorf("core: slot %d: %w", o.t, err)
	default:
		var carried *model.Decision
		var tactic string
		var repairIters int
		var derr error
		slotScope.Phase(o.Opts.Solver.Ctx, "repair", func() {
			carried, tactic, repairIters, derr = carryForward(o.Net, o.In, o.t, o.prev, stepOpts, o.lpWork)
		})
		sr.Iterations += repairIters
		if derr != nil {
			span.End()
			return nil, fmt.Errorf("core: slot %d unrecoverable: %w (degradation failed: %v)", o.t, err, derr)
		}
		dec = carried
		sr.Status = SlotDegraded
		sr.Rung = tactic
		sr.Err = err
	}
	// The outgoing duals: none after a degraded slot; the incoming ones,
	// bitwise, after a slot that started from them and snapped, so a fixed
	// point stays fixed and its cache key repeats; the committing solve's
	// otherwise.
	carried := snapped && z0 != nil
	if o.state != nil && !carried {
		if sr.Status == SlotDegraded {
			o.state.setDuals(nil, 0)
		} else {
			o.state.setDuals(commit.duals, o.t)
		}
	}
	sr.Duration = time.Since(start)
	span.EndWith(sr.Duration)
	o.report.Slots = append(o.report.Slots, sr)
	digest := o.recordCommit(dec, sr, key.inputs, "")
	if o.state != nil {
		if digest == "" {
			digest = journal.Digest(dec.X, dec.Y, dec.Z)
		}
		if sr.Status == SlotOK {
			o.state.store(key, z0, dec, digest, carried)
		}
		o.state.prevDigest = digest
		slotScope.SetGauge(obs.MetricWarmCacheSize, float64(o.state.size()))
	}
	o.prev = dec
	o.t++
	return dec, nil
}

// recordCommit feeds the flight recorder, the health tracker, and the cost
// attribution at the moment slot sr.Slot commits decision dec (o.prev still
// holds the previous slot's decision). All sinks are nil-safe, so the fully
// disabled path costs a few branches. inputsDigest and decisionDigest are
// the slot's digests when the caller already holds them ("" otherwise), so
// each is computed at most once per slot; recordCommit returns the decision
// digest it journaled ("" when it journaled nothing).
func (o *Online) recordCommit(dec *model.Decision, sr SlotReport, inputsDigest, decisionDigest string) string {
	o.Opts.Health.RecordSlot(sr.Slot, sr.Status.String())
	if o.Opts.Journal == nil && o.Opts.Obs == nil {
		return ""
	}
	commitSpan := o.Opts.Obs.Slot(sr.Slot).StartSpan("core.commit")
	defer commitSpan.End()
	if o.tracker == nil {
		o.tracker = attr.NewTracker(o.Net, o.In)
	}
	sa := o.tracker.Slot(sr.Slot, o.prev, dec)
	sum := o.tracker.Snapshot()
	sc := o.Opts.Obs
	sc.SetGauge("attr.cum_cost", sum.CumCost)
	sc.SetGauge("attr.cum_lower_bound", sum.CumLowerBound)
	sc.SetGauge("attr.regret", sum.Regret)
	sc.SetGauge("attr.competitive_ratio", sum.CompetitiveRatio)
	sc.SetGauge("attr.slot_slack", sa.Slack)
	if o.Opts.Journal == nil {
		return ""
	}
	if inputsDigest == "" {
		inputsDigest = InputsDigest(o.In, sr.Slot)
	}
	if decisionDigest == "" {
		decisionDigest = journal.Digest(dec.X, dec.Y, dec.Z)
	}
	ja := JournalAttr(sa)
	if sr.Warm && sr.SolveIters > 0 {
		// The per-slot cold-vs-warm iteration delta replay reconciles: the
		// warm solve's own count and the run's most recent cold reference
		// (absent when no cold solve preceded, e.g. right after a resume).
		ja.WarmIters = sr.SolveIters
		if o.state != nil {
			ja.ColdRefIters = o.state.lastColdIters
		}
	}
	// The slot record and the checkpoint of the restartable state behind it
	// are one commit (one write, one fsync), so a crashed run resumes from
	// here instead of re-solving its prefix (Online.Restore reverses the
	// checkpoint).
	state := journal.StateRecord{
		Slot: sr.Slot, X: dec.X, Y: dec.Y, Z: dec.Z,
		DecisionDigest: decisionDigest,
	}
	if o.state != nil {
		state.Duals, state.DualsSlot = o.state.duals, o.state.dualsSlot
	}
	o.Opts.Journal.Commit(journal.SlotRecord{
		Slot:           sr.Slot,
		InputsDigest:   inputsDigest,
		DecisionDigest: decisionDigest,
		AllocCost:      sa.Breakdown.Allocation(),
		ReconfCost:     sa.Breakdown.Reconfiguration(),
		Status:         sr.Status.String(),
		Rung:           sr.Rung,
		DurNS:          sr.Duration.Nanoseconds(),
		Iters:          sr.Iterations,
		Warm:           sr.Warm,
		Attr:           ja,
	}, state)
	return decisionDigest
}

// PrimeAttribution seeds the run's attribution tracker from a journaled
// prefix (slot count, cumulative cost, cumulative operating lower bound), so
// a resumed run's regret and competitive-ratio gauges continue from where
// the crashed run stopped instead of restarting at zero.
func (o *Online) PrimeAttribution(slots int, cumCost, cumLowerBound float64) {
	if o.tracker == nil {
		o.tracker = attr.NewTracker(o.Net, o.In)
	}
	o.tracker.Prime(slots, cumCost, cumLowerBound)
}

// InputsDigest fingerprints every realized input P2(t) reads: the workload
// row, the tier-2 operating-price row, and — on tier-1 networks — the tier-1
// operating-price row. It is the journal's per-slot inputs digest and the
// first half of the warm-start decision-cache key; both need the full set,
// since two slots differing only in tier-1 prices solve to different
// decisions. Tier-2-only networks hash exactly the two rows they always did.
func InputsDigest(in *model.Inputs, t int) string {
	if in.PriceT1 != nil {
		return journal.Digest(in.Workload[t], in.PriceT2[t], in.PriceT1[t])
	}
	return journal.Digest(in.Workload[t], in.PriceT2[t])
}

// JournalAttr converts a slot attribution into its journal record form.
func JournalAttr(sa attr.SlotAttribution) *journal.CostAttr {
	return &journal.CostAttr{
		AllocT2:   sa.Breakdown.AllocT2,
		AllocNet:  sa.Breakdown.AllocNet,
		AllocT1:   sa.Breakdown.AllocT1,
		ReconfT2:  sa.Breakdown.ReconfT2,
		ReconfNet: sa.Breakdown.ReconfNet,
		ReconfT1:  sa.Breakdown.ReconfT1,
		PerTier2:  sa.PerTier2,
		PerTier1:  sa.PerTier1,
		Slack:     sa.Slack,
		OperLB:    sa.OperLB,
	}
}

// Run executes the remaining slots and returns all decisions made.
func (o *Online) Run() ([]*model.Decision, error) {
	var out []*model.Decision
	for o.t < o.In.T {
		d, err := o.Step()
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
	return out, nil
}

// RunOnline is the one-call convenience wrapper used by the evaluation
// harness: it runs the online algorithm over the whole horizon.
func RunOnline(n *model.Network, in *model.Inputs, opts Options) ([]*model.Decision, error) {
	seq, _, err := RunOnlineReport(n, in, opts)
	return seq, err
}

// RunOnlineReport runs the online algorithm over the whole horizon and also
// returns the per-run resilience report. The report is valid (for the
// decided prefix) even when an error is returned.
func RunOnlineReport(n *model.Network, in *model.Inputs, opts Options) ([]*model.Decision, *Report, error) {
	o, err := NewOnline(n, in, opts)
	if err != nil {
		return nil, nil, err
	}
	seq, err := o.Run()
	return seq, o.Report(), err
}
