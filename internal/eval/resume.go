package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"soral/internal/core"
	"soral/internal/model"
	"soral/internal/obs/attr"
	"soral/internal/obs/journal"
)

// NotResumableError marks journals that cannot continue in place: the wrong
// algorithm (only the online pipeline keeps slot-local state), or no embedded
// config to rebuild the scenario from.
type NotResumableError struct{ Reason string }

func (e *NotResumableError) Error() string { return "eval: not resumable: " + e.Reason }

// ResumeOptions tunes a resumed run.
type ResumeOptions struct {
	// Workers overrides the solver worker count (0 keeps the suite default).
	// Decisions are worker-count independent (DESIGN.md §8), so resuming a
	// run under a different parallel envelope is digest-safe.
	Workers int
}

// ResumeResult describes how a resumed run completed.
type ResumeResult struct {
	Algorithm string `json:"algorithm"`
	// StartSlot is the first slot the resumed run decided (last durable
	// slot + 1); Resumed counts the slots it decided.
	StartSlot int `json:"start_slot"`
	Resumed   int `json:"resumed"`
	// CaughtUp counts journal-recorded slots that had to be re-solved to
	// rebuild the in-memory state because their state checkpoint was lost
	// with the torn tail. Each re-solve is digest-verified against its
	// recorded slot record before the run continues.
	CaughtUp int `json:"caught_up"`
	// AlreadyComplete reports a journal that carries a footer: the run
	// finished, resuming is a no-op, and no record was written.
	AlreadyComplete bool `json:"already_complete"`
	// TotalCost is the whole run's objective — recorded prefix plus resumed
	// tail — matching the footer the resumed writer sealed.
	TotalCost float64 `json:"total_cost"`
}

// Resume continues the recorded run in j from its last durable slot, writing
// the remaining slot records through w (a journal.ResumeWriter appending to
// the recovered file). The resumed tail is bit-identical to what an
// uninterrupted run would have produced: the online algorithm's state is
// exactly (slot, previous decision), plus the carried exit duals on a
// warm-start run, restored from the last state checkpoint,
// and any recorded slots past that checkpoint are re-solved and verified
// against their recorded digests before new slots commit.
func Resume(ctx context.Context, j *journal.Journal, w *journal.Writer) (*ResumeResult, error) {
	return ResumeWith(ctx, j, w, ResumeOptions{})
}

// ResumeWith is Resume with tuning.
func ResumeWith(ctx context.Context, j *journal.Journal, w *journal.Writer, opts ResumeOptions) (*ResumeResult, error) {
	if !j.Replayable() {
		return nil, &NotResumableError{"journal embeds no config (recorded with an external instance?)"}
	}
	var cfg RunConfig
	if err := json.Unmarshal(j.Header.Config, &cfg); err != nil {
		return nil, fmt.Errorf("eval: decoding journal config: %w", err)
	}
	cfg = cfg.canonical()
	if cfg.Algorithm != "online" {
		return nil, &NotResumableError{fmt.Sprintf("algorithm %q keeps no slot-local state; replay it instead", cfg.Algorithm)}
	}
	res := &ResumeResult{Algorithm: cfg.Algorithm, StartSlot: j.LastSlot() + 1}
	if j.Footer != nil {
		res.AlreadyComplete = true
		res.TotalCost = j.Footer.TotalCost
		return res, nil
	}
	scen, err := Build(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("eval: rebuilding scenario: %w", err)
	}
	suite := NewSuite(scen, cfg.Eps).WithJournal(nil)
	if cfg.WarmStart {
		// A warm-recorded run resumes warm: the warm-start state died with
		// the process apart from the checkpointed duals (core.Restore
		// discards the rest deterministically), and the catch-up re-solves
		// and the resumed tail must walk the same warm rungs the
		// uninterrupted run would have.
		suite.WithWarmStart(true)
	}
	coreOpts := suite.Cfg.CoreOpts
	coreOpts.Solver.Ctx = ctx
	if opts.Workers != 0 {
		coreOpts.Solver.Workers = opts.Workers
	}
	if coreOpts.Obs == nil && suite.Cfg.Obs != nil {
		coreOpts.Obs = suite.Cfg.Obs.Solver("online")
	}
	coreOpts.Journal = nil // catch-up re-solves are already on disk
	coreOpts.Health = suite.Cfg.Health
	o, err := core.NewOnline(scen.Net, scen.In, coreOpts)
	if err != nil {
		return nil, err
	}
	if st := j.LastState; st != nil {
		prev := &model.Decision{X: st.X, Y: st.Y, Z: st.Z}
		if err := o.Restore(st.Slot+1, prev, st.Duals, st.DualsSlot); err != nil {
			return nil, err
		}
	}

	// Catch up to the last recorded slot: its state checkpoint was lost with
	// the torn tail, so the decisions between the checkpoint and the tail are
	// re-solved (deterministically) and checked against the records.
	recorded := make(map[int]journal.SlotRecord, len(j.Slots))
	for _, rec := range j.Slots {
		recorded[rec.Slot] = rec
	}
	for o.Slot() < res.StartSlot {
		t := o.Slot()
		d, err := o.Step()
		if err != nil {
			return nil, fmt.Errorf("eval: catching up slot %d: %w", t, err)
		}
		rec, ok := recorded[t]
		if !ok {
			return nil, fmt.Errorf("eval: journal skips slot %d (cannot verify catch-up)", t)
		}
		if got := journal.Digest(d.X, d.Y, d.Z); got != rec.DecisionDigest {
			return nil, fmt.Errorf("eval: catch-up diverged at slot %d: re-solved %s, journal recorded %s",
				t, got, rec.DecisionDigest)
		}
		res.CaughtUp++
	}

	// Prime the attribution tracker with the recorded prefix so the resumed
	// tail's regret and competitive-ratio gauges continue from whole-run
	// totals rather than restarting at zero. The lower bound is recomputed
	// (it is a pure function of the inputs) so pre-attr journals prime too.
	var primeCost, primeLB float64
	for _, rec := range j.Slots {
		primeCost += rec.AllocCost + rec.ReconfCost
		primeLB += attr.OperatingLowerBound(scen.Net, scen.In, rec.Slot)
	}
	o.PrimeAttribution(res.StartSlot, primeCost, primeLB)

	// From here every commit is new: attach the resumed writer and finish
	// the horizon, accumulating the tail's cost as it commits.
	o.Opts.Journal = w
	acct := model.Accountant{Net: scen.Net, In: scen.In}
	start := time.Now()
	prev := o.Prev()
	for o.Slot() < scen.In.T {
		t := o.Slot()
		d, err := o.Step()
		if err != nil {
			return nil, fmt.Errorf("eval: resumed run: %w", err)
		}
		res.TotalCost += acct.SlotCost(t, prev, d).Total()
		prev = d
		res.Resumed++
	}

	// Footer totals reconcile over the whole file: recorded prefix (which
	// already includes any caught-up slots) plus the resumed tail. DurNS
	// covers only the resumed portion — the original run's wall time died
	// with it.
	totalIters := 0
	for _, rec := range j.Slots {
		res.TotalCost += rec.AllocCost + rec.ReconfCost
		totalIters += rec.Iters
	}
	for _, sr := range o.Report().Slots {
		if sr.Slot >= res.StartSlot {
			totalIters += sr.Iterations
		}
	}
	w.End(journal.Footer{TotalCost: res.TotalCost, TotalIters: totalIters, DurNS: time.Since(start).Nanoseconds()})
	if err := w.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
