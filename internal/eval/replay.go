package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"soral/internal/core"
	"soral/internal/linalg"
	"soral/internal/model"
	"soral/internal/obs/attr"
	"soral/internal/obs/journal"
	"soral/internal/resilience"
)

// RunConfig is the canonical, replayable description of one run: scenario
// spec, algorithm, and every knob that shapes the decisions. Journal headers
// embed its JSON encoding; Replay unmarshals it back and re-runs it, so any
// field affecting a decision must live here (DESIGN.md §9).
type RunConfig struct {
	Spec      ScenarioSpec `json:"spec"`
	Algorithm string       `json:"algorithm"`
	// Eps is the regularization parameter ε = ε′ (0 selects the paper
	// default 10⁻²).
	Eps float64 `json:"eps,omitempty"`
	// Window, PredictError, and PredictSeed configure the predictive
	// controllers and are ignored by the rest.
	Window       int     `json:"window,omitempty"`
	PredictError float64 `json:"predict_error,omitempty"`
	PredictSeed  int64   `json:"predict_seed,omitempty"`
	// WarmStart enables the warm-started incremental re-solve layer
	// (DESIGN.md §13). It lives in the config — not in tuning options —
	// because warm-started decisions differ from cold ones in the last few
	// ulps, so a journal recorded warm must also replay and resume warm.
	// Off (the default) is bit-identical to the pre-warm-start pipeline.
	WarmStart bool `json:"warm_start,omitempty"`
}

// canonical normalizes the config so its JSON encoding (and hence the
// journal's config digest) does not depend on which zero-valued knobs the
// caller spelled out.
func (c RunConfig) canonical() RunConfig {
	c.Spec = c.Spec.withDefaults()
	if c.Eps <= 0 {
		c.Eps = 1e-2
	}
	return c
}

// RunConfigured dispatches one algorithm run by name. It is the single
// switch shared by cmd/soral, the flight recorder, and replay.
func (s *Suite) RunConfigured(cfg RunConfig) (*Run, error) {
	if cfg.WarmStart {
		s.WithWarmStart(true)
	}
	switch cfg.Algorithm {
	case "online":
		return s.Online()
	case "greedy", "one-shot":
		return s.Greedy()
	case "offline":
		return s.Offline()
	case "lcpm", "lcp-m":
		return s.LCPM()
	case "fhc", "rhc", "afhc", "rfhc", "rrhc":
		return s.Predictive(cfg.Algorithm, cfg.Window, cfg.PredictError, cfg.PredictSeed)
	default:
		return nil, fmt.Errorf("eval: unknown algorithm %q", cfg.Algorithm)
	}
}

// WithJournal attaches a flight-recorder writer to the suite's runs (nil
// detaches). The online pipeline journals at commit time inside core; every
// other algorithm is journaled post-hoc by account.
func (s *Suite) WithJournal(w *journal.Writer) *Suite {
	s.Cfg.Journal = w
	return s
}

// WithHealth attaches a degradation tracker to the suite's runs (nil
// detaches).
func (s *Suite) WithHealth(h *resilience.Health) *Suite {
	s.Cfg.Health = h
	return s
}

// Record builds the scenario for cfg, runs it with the flight recorder
// attached, and writes the full journal (header, per-slot records, footer).
// On a run error the journal is left footerless — the mark of a run that
// died mid-flight — and the error is returned. The caller owns flushing and
// closing the writer's underlying file. A nil writer degrades Record to a
// plain configured run (every journal method no-ops).
func Record(ctx context.Context, cfg RunConfig, w *journal.Writer) (*Run, *Scenario, error) {
	cfg = cfg.canonical()
	scen, err := Build(cfg.Spec)
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: encoding run config: %w", err)
	}
	run, err := record(ctx, scen, cfg, raw, w)
	return run, scen, err
}

// RecordInstance is Record for an external instance (model.ReadInstance):
// cfg.Spec did not build scen, so the header embeds no config and the
// journal is auditable but not replayable.
func RecordInstance(ctx context.Context, scen *Scenario, cfg RunConfig, w *journal.Writer) (*Run, error) {
	return record(ctx, scen, cfg, nil, w)
}

// record runs cfg on scen and journals it; raw is the header's embedded
// config (nil embeds none).
func record(ctx context.Context, scen *Scenario, cfg RunConfig, raw json.RawMessage, w *journal.Writer) (*Run, error) {
	suite := NewSuite(scen, cfg.Eps).WithJournal(w)
	suite.Cfg.CoreOpts.Solver.Ctx = ctx
	h := journal.Header{
		Algorithm:  cfg.Algorithm,
		Config:     raw,
		Seed:       cfg.Spec.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    linalg.ResolveWorkers(suite.Cfg.CoreOpts.Solver.Workers),
		Solver:     solverFor(cfg.Algorithm),
	}
	if raw != nil {
		h.ConfigDigest = journal.DigestBytes(raw)
	}
	w.Begin(h)
	start := time.Now()
	run, err := suite.RunConfigured(cfg)
	if err != nil {
		return nil, err
	}
	footer := journal.Footer{
		TotalCost: run.Cost.Total(),
		DurNS:     time.Since(start).Nanoseconds(),
	}
	if run.Report != nil {
		footer.TotalIters = run.Report.TotalIterations()
	}
	w.End(footer)
	return run, w.Err()
}

// solverFor is the solver identity a run of alg stamps into its journal
// header: core.SolverID for the algorithms whose decisions come from P2
// solves, "" for the LP-only ones it does not cover.
func solverFor(alg string) string {
	switch alg {
	case "online", "rfhc", "rrhc":
		return core.SolverID
	}
	return ""
}

// SlotMismatch is one replay divergence: a recorded digest or cost the
// re-run did not reproduce. Field is "inputs" or "decision" for digest
// mismatches, "attr" when the re-run's per-slot cost attribution is not
// bit-identical to the recorded one, "attr-sum" when a record's attribution
// components do not sum to its alloc+reconf cost, "objective" (Slot -1)
// when the journal footer's total does not reconcile with the sum of the
// per-slot records, and "solver" (Slot -1, the only mismatch then) when a
// different solver build recorded the journal.
type SlotMismatch struct {
	Slot  int    `json:"slot"`
	Field string `json:"field"`
	Got   string `json:"got"`
	Want  string `json:"want"` // the recorded digest or value
}

// ReplayResult is the verdict of replaying a journal against a fresh run.
type ReplayResult struct {
	Algorithm  string         `json:"algorithm"`
	Slots      int            `json:"slots"` // recorded slots compared
	Mismatches []SlotMismatch `json:"mismatches,omitempty"`

	// Advisories are observations worth surfacing that are not replay
	// failures — currently the warm-vs-cold iteration deltas: a warm slot
	// that used at least as many Newton iterations as the run's most recent
	// cold reference. The reference comes from an earlier, different slot, so
	// a legitimately harder warm slot (a sharp workload shift that still
	// passes the interior gate) can validly exceed it on a correct journal.
	Advisories []SlotMismatch `json:"advisories,omitempty"`
}

// Clean reports whether every recorded digest was reproduced bit-identically.
func (r *ReplayResult) Clean() bool { return len(r.Mismatches) == 0 }

// Replay re-runs a recorded journal from its embedded config and verifies
// the re-run reproduces every recorded slot digest bit-for-bit: inputs
// digests check that the scenario rebuild is faithful, decision digests
// check the determinism contract of DESIGN.md §8 (decisions must not depend
// on GOMAXPROCS, worker count, or the recording machine). A footerless
// journal replays its recorded prefix.
func Replay(ctx context.Context, j *journal.Journal) (*ReplayResult, error) {
	if !j.Replayable() {
		return nil, fmt.Errorf("eval: journal embeds no config (recorded with an external instance?)")
	}
	var cfg RunConfig
	if err := json.Unmarshal(j.Header.Config, &cfg); err != nil {
		return nil, fmt.Errorf("eval: decoding journal config: %w", err)
	}
	cfg = cfg.canonical()
	// Another solver's arithmetic differs in the last ulps, so every slot
	// digest would diverge: report the one cause instead.
	if want := solverFor(cfg.Algorithm); j.Header.Solver != want {
		recorded := j.Header.Solver
		if recorded == "" {
			recorded = "none (recorded before journals named their solver)"
		}
		return &ReplayResult{
			Algorithm:  cfg.Algorithm,
			Slots:      len(j.Slots),
			Mismatches: []SlotMismatch{{Slot: -1, Field: "solver", Got: want, Want: recorded}},
		}, nil
	}
	scen, err := Build(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("eval: rebuilding scenario: %w", err)
	}
	suite := NewSuite(scen, cfg.Eps).WithJournal(nil).WithHealth(nil)
	suite.Cfg.CoreOpts.Solver.Ctx = ctx
	run, err := suite.RunConfigured(cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: re-running %s: %w", cfg.Algorithm, err)
	}
	res := &ReplayResult{Algorithm: cfg.Algorithm, Slots: len(j.Slots)}
	for _, rec := range j.Slots {
		t := rec.Slot
		if t < 0 || t >= scen.In.T {
			res.Mismatches = append(res.Mismatches, SlotMismatch{
				Slot: t, Field: "inputs", Got: "slot outside rebuilt horizon", Want: rec.InputsDigest,
			})
			continue
		}
		if got := core.InputsDigest(scen.In, t); got != rec.InputsDigest {
			res.Mismatches = append(res.Mismatches, SlotMismatch{Slot: t, Field: "inputs", Got: got, Want: rec.InputsDigest})
		}
		if t >= len(run.Decisions) {
			res.Mismatches = append(res.Mismatches, SlotMismatch{
				Slot: t, Field: "decision", Got: "re-run decided fewer slots", Want: rec.DecisionDigest,
			})
			continue
		}
		d := run.Decisions[t]
		if got := journal.Digest(d.X, d.Y, d.Z); got != rec.DecisionDigest {
			res.Mismatches = append(res.Mismatches, SlotMismatch{Slot: t, Field: "decision", Got: got, Want: rec.DecisionDigest})
		}
		if rec.Attr == nil {
			continue // pre-attr journal (soral-journal/2 without the extension)
		}
		// Attribution must replay bit-identically: it is a pure function of
		// (network, inputs, prev, decision), all of which the digest checks
		// above pinned. JSON round-trips float64 exactly, so DeepEqual over
		// the decoded record is an exact comparison.
		prev := model.NewZeroDecision(scen.Net)
		if t > 0 && t-1 < len(run.Decisions) {
			prev = run.Decisions[t-1]
		}
		got := core.JournalAttr(attr.Attribute(scen.Net, scen.In, t, prev, d))
		// The warm-iteration fields are run-history telemetry, not a pure
		// function of (inputs, prev, decision): carry the recorded values
		// into the recomputed attribution so DeepEqual compares only the
		// replayable fields; they are reconciled separately below.
		got.WarmIters, got.ColdRefIters = rec.Attr.WarmIters, rec.Attr.ColdRefIters
		if !reflect.DeepEqual(got, rec.Attr) {
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(rec.Attr)
			res.Mismatches = append(res.Mismatches, SlotMismatch{Slot: t, Field: "attr", Got: string(gb), Want: string(wb)})
		}
		// The six components partition the slot objective; drift between the
		// attribution and the recorded alloc/reconf costs is a bug even when
		// both replayed cleanly against themselves.
		sum := rec.Attr.AllocT2 + rec.Attr.AllocNet + rec.Attr.AllocT1 +
			rec.Attr.ReconfT2 + rec.Attr.ReconfNet + rec.Attr.ReconfT1
		if total := rec.AllocCost + rec.ReconfCost; !reconciles(sum, total) {
			res.Mismatches = append(res.Mismatches, SlotMismatch{
				Slot: t, Field: "attr-sum",
				Got:  fmt.Sprintf("%.17g", sum),
				Want: fmt.Sprintf("%.17g", total),
			})
		}
		// A warm-committed slot is expected to take strictly fewer Newton
		// iterations than the most recent cold solve of the same run — that
		// is the point of carrying the iterate (ColdRefIters is zero when no
		// cold solve preceded the slot, e.g. the first slot after a resume;
		// nothing to reconcile then). The reference is an earlier, different
		// slot, so a harder warm slot can validly exceed it: report the
		// anomaly as an advisory, never as a replay failure.
		if rec.Attr.WarmIters > 0 && rec.Attr.ColdRefIters > 0 && rec.Attr.WarmIters >= rec.Attr.ColdRefIters {
			res.Advisories = append(res.Advisories, SlotMismatch{
				Slot: t, Field: "warm-iters",
				Got:  fmt.Sprintf("warm %d", rec.Attr.WarmIters),
				Want: fmt.Sprintf("< cold reference %d", rec.Attr.ColdRefIters),
			})
		}
		// And the warm solve itself must replay: the re-run's committing
		// attempt took exactly the recorded iteration count (skipped when
		// the re-run short-circuited the slot through the decision cache —
		// the digest checks above already pinned the decision).
		if rec.Warm && rec.Attr.WarmIters > 0 && run.Report != nil && t < len(run.Report.Slots) {
			if sr := run.Report.Slots[t]; sr.Warm && sr.SolveIters > 0 && sr.SolveIters != rec.Attr.WarmIters {
				res.Mismatches = append(res.Mismatches, SlotMismatch{
					Slot: t, Field: "warm-replay",
					Got:  fmt.Sprintf("%d", sr.SolveIters),
					Want: fmt.Sprintf("%d", rec.Attr.WarmIters),
				})
			}
		}
	}
	// Watchdog alert records are run-history telemetry — which detector saw
	// what, when — not a pure function of the config, so a re-run cannot
	// reproduce them. Reconcile them as advisories: each recorded transition
	// is surfaced with its value/threshold pair so an operator auditing the
	// journal sees the alert trail alongside the replay verdict.
	for _, a := range j.Alerts {
		res.Advisories = append(res.Advisories, SlotMismatch{
			Slot: -1, Field: "alert",
			Got:  fmt.Sprintf("[%s] %s %s: value %.6g vs threshold %.6g", a.Severity, a.Rule, a.State, a.Value, a.Threshold),
			Want: "recorded watchdog transition (informational)",
		})
	}
	// A sealed journal's footer objective must reconcile with the sum of its
	// per-slot records (only meaningful when the journal holds the full
	// horizon; a compacted or torn prefix legitimately sums to less).
	if j.Footer != nil && len(j.Slots) == scen.In.T {
		var sum float64
		for _, rec := range j.Slots {
			sum += rec.AllocCost + rec.ReconfCost
		}
		if !reconciles(sum, j.Footer.TotalCost) {
			res.Mismatches = append(res.Mismatches, SlotMismatch{
				Slot: -1, Field: "objective",
				Got:  fmt.Sprintf("%.17g", sum),
				Want: fmt.Sprintf("%.17g", j.Footer.TotalCost),
			})
		}
	}
	return res, nil
}

// reconciles reports whether two objective values agree to within a 1e-9
// relative tolerance (absolute near zero) — the slack allowed for summing
// the same float64 terms in a different order.
func reconciles(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}

// journalPostHoc writes slot records for algorithms that decide outside
// core.Online (offline, one-shot, LCP-M, the predictive family): digests and
// objective terms are exact, durations and iteration counts are not
// attributable per slot and stay zero.
func (s *Suite) journalPostHoc(seq []*model.Decision) {
	w := s.Cfg.Journal
	if w == nil {
		return
	}
	prev := model.NewZeroDecision(s.Scen.Net)
	for t, d := range seq {
		sa := attr.Attribute(s.Scen.Net, s.Scen.In, t, prev, d)
		w.Slot(journal.SlotRecord{
			Slot:           t,
			InputsDigest:   core.InputsDigest(s.Scen.In, t),
			DecisionDigest: journal.Digest(d.X, d.Y, d.Z),
			AllocCost:      sa.Breakdown.Allocation(),
			ReconfCost:     sa.Breakdown.Reconfiguration(),
			Attr:           core.JournalAttr(sa),
			Status:         journal.StatusOK,
		})
		prev = d
	}
}
