package eval

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"soral/internal/obs/journal"
)

// ChaosResult is one fault schedule's outcome: what was broken, how the run
// recovered, and whether the recovered run reproduced the uninterrupted
// reference bit-for-bit.
type ChaosResult struct {
	// Schedule names the fault schedule (e.g. "kill/slot-3", "torn/footer").
	Schedule string
	// Kind is the fault family: "kill" (clean truncation at a record
	// boundary), "torn" (mid-record truncation), or "resume"
	// (resume-protocol edge cases).
	Kind string
	// Slots is the horizon length of the run under test.
	Slots int
	// ResumedFrom is the first slot the recovery re-decided (-1 when the
	// schedule involves no journal resume).
	ResumedFrom int
	// CaughtUp counts recorded slots re-solved and digest-verified because
	// their state checkpoint died with the torn tail.
	CaughtUp int
	// NsPerOp is the wall time of the recovery path (recover + resume) in
	// nanoseconds.
	NsPerOp int64
	// BitIdentical reports whether every per-slot decision digest of the
	// recovered run equals the uninterrupted reference run's.
	BitIdentical bool
}

// chaosSeed drives every derived quantity of the chaos experiment: the kill
// and tear points.
const chaosSeed uint64 = 0x5eed5011d

// chaosSpec is the scenario under chaos: small enough that the full schedule
// sweep runs in seconds, long enough that kill points land mid-horizon.
func chaosSpec() RunConfig {
	return RunConfig{
		Spec:      ScenarioSpec{NumTier2: 2, NumTier1: 3, K: 1, T: 8, Trace: TraceWikipedia, Seed: 11, ReconfWeight: 10},
		Algorithm: "online",
	}
}

// chaosRun carries the uninterrupted reference run every schedule is
// compared against: the recorded journal bytes and the per-slot decision
// digests they contain.
type chaosRun struct {
	dir     string
	cfg     RunConfig
	ref     []byte
	digests []string
}

// record runs cfg uninterrupted with the flight recorder into path and
// returns the journal bytes.
func chaosRecord(ctx context.Context, cfg RunConfig, path string) ([]byte, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := journal.NewWriter(f)
	if _, _, err := Record(ctx, cfg, w); err != nil {
		f.Close()
		return nil, fmt.Errorf("eval: chaos reference run: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// chaosDigests extracts the per-slot decision digests of a journal image.
func chaosDigests(b []byte) ([]string, error) {
	j, err := journal.Read(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	out := make([]string, len(j.Slots))
	for i, s := range j.Slots {
		out[i] = s.DecisionDigest
	}
	return out, nil
}

// crashResume simulates a crash by writing the truncated journal image to
// disk, then runs the full recovery path: Recover (torn-tail truncation),
// resume from the last durable state, digest-compare against the reference.
func (c *chaosRun) crashResume(ctx context.Context, name string, image []byte) (ChaosResult, error) {
	res := ChaosResult{Schedule: name, Slots: c.cfg.Spec.T, ResumedFrom: -1}
	path := filepath.Join(c.dir, "crash.jsonl")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		return res, err
	}
	start := time.Now()
	j, _, err := journal.RecoverFile(path)
	if err != nil {
		return res, fmt.Errorf("eval: chaos %s: recover: %w", name, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return res, err
	}
	w := journal.ResumeWriter(f, j).WithSync(f, journal.SyncOnCommit())
	rr, err := ResumeWith(ctx, j, w, ResumeOptions{})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, fmt.Errorf("eval: chaos %s: resume: %w", name, err)
	}
	res.NsPerOp = time.Since(start).Nanoseconds()
	res.ResumedFrom = rr.StartSlot
	res.CaughtUp = rr.CaughtUp
	whole, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	full, err := journal.Read(bytes.NewReader(whole))
	if err != nil {
		return res, fmt.Errorf("eval: chaos %s: recovered journal invalid: %w", name, err)
	}
	got, err := chaosDigests(whole)
	if err != nil {
		return res, err
	}
	res.BitIdentical = full.Footer != nil && digestsEqual(got, c.digests)
	return res, nil
}

func digestsEqual(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Chaos drives the seeded deterministic fault schedules of the crash-recovery
// pipeline — process kills at record boundaries, torn writes into every
// record kind, and the resume protocol's edge cases — asserting that every recovery path reproduces the
// uninterrupted run's per-slot decision digests exactly. Each schedule is
// one "chaos/<schedule>" entry carrying the seed it was drawn from (every
// schedule is a pure function of it), its recovery bookkeeping, and the
// recovery wall time as ns_per_op. The report is written as
// BENCH_chaos.json by cmd/soralbench -exp chaos -json. Canceling ctx
// aborts the runs.
func Chaos(ctx context.Context, log Logger) (*Table, *Bench, error) {
	cfg := chaosSpec().canonical()
	rep := &Bench{BenchEnv: HostEnv()}

	dir, err := os.MkdirTemp("", "soral-chaos-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	log.printf("chaos: recording %d-slot reference run...", cfg.Spec.T)
	ref, err := chaosRecord(ctx, cfg, filepath.Join(dir, "ref.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	digests, err := chaosDigests(ref)
	if err != nil {
		return nil, nil, err
	}
	c := &chaosRun{dir: dir, cfg: cfg, ref: ref, digests: digests}

	// The journal lays out one header line, then a slot/state line pair per
	// slot, then the footer; SplitAfter leaves a trailing empty element.
	lines := bytes.SplitAfter(ref, []byte("\n"))
	nlines := len(lines) - 1
	if want := 2 + 2*cfg.Spec.T; nlines != want {
		return nil, nil, fmt.Errorf("eval: chaos reference journal has %d lines, want %d", nlines, want)
	}
	slotLine := func(t int) int { return 1 + 2*t }  // slot t's slot record
	stateLine := func(t int) int { return 2 + 2*t } // slot t's state checkpoint
	keep := func(n int) []byte { return bytes.Join(lines[:n], nil) }
	tear := func(n int) []byte { // keep n whole lines, tear halfway into the next
		return append(append([]byte{}, keep(n)...), lines[n][:len(lines[n])/2]...)
	}

	// The kill and tear points are drawn from the seed, never hard-coded, so
	// the schedule sweep does not fossilize around one lucky offset.
	rng := xorshift(chaosSeed)
	pick := func(lo, hi int) int { // uniform in [lo, hi]
		return lo + int((rng.next()+1)/2*float64(hi-lo+1))%(hi-lo+1)
	}

	type schedule struct {
		name string
		kind string
		run  func() (ChaosResult, error)
	}
	var schedules []schedule
	crash := func(name, kind string, image []byte) {
		schedules = append(schedules, schedule{name, kind, func() (ChaosResult, error) {
			r, err := c.crashResume(ctx, name, image)
			r.Kind = kind
			return r, err
		}})
	}

	// Process kills at record boundaries: the state checkpoint of slot k is
	// the last durable line. Draw distinct kill slots so no schedule name
	// repeats in the report.
	kills := map[int]bool{}
	for len(kills) < 3 {
		kills[pick(0, cfg.Spec.T-2)] = true
	}
	for k := 0; k < cfg.Spec.T-1; k++ {
		if kills[k] {
			crash(fmt.Sprintf("kill/slot-%d", k), "kill", keep(stateLine(k)+1))
		}
	}
	crash("kill/before-first-slot", "kill", keep(1))

	// Torn writes into every record kind the writer emits mid-run.
	m := pick(1, cfg.Spec.T-1)
	crash(fmt.Sprintf("torn/slot-record-%d", m), "torn", tear(slotLine(m)))
	crash(fmt.Sprintf("torn/state-record-%d", m), "torn", tear(stateLine(m)))
	crash("torn/footer", "torn", tear(nlines-1))

	// Resume-protocol edge cases: a second resume of a completed journal must
	// not modify it, and a resume under a different parallel envelope must
	// still be digest-exact (decisions are worker-count independent).
	schedules = append(schedules,
		schedule{"resume/double", "resume", func() (ChaosResult, error) {
			res := ChaosResult{Schedule: "resume/double", Kind: "resume", Slots: cfg.Spec.T, ResumedFrom: -1}
			path := filepath.Join(dir, "done.jsonl")
			if err := os.WriteFile(path, ref, 0o644); err != nil {
				return res, err
			}
			start := time.Now()
			j, _, err := journal.RecoverFile(path)
			if err != nil {
				return res, err
			}
			rr, err := ResumeWith(ctx, j, nil, ResumeOptions{})
			if err != nil {
				return res, err
			}
			res.NsPerOp = time.Since(start).Nanoseconds()
			after, err := os.ReadFile(path)
			if err != nil {
				return res, err
			}
			res.BitIdentical = rr.AlreadyComplete && bytes.Equal(after, ref)
			return res, nil
		}},
		schedule{"resume/workers-4", "resume", func() (ChaosResult, error) {
			res := ChaosResult{Schedule: "resume/workers-4", Kind: "resume", Slots: cfg.Spec.T, ResumedFrom: -1}
			path := filepath.Join(dir, "w4.jsonl")
			if err := os.WriteFile(path, keep(stateLine(0)+1), 0o644); err != nil {
				return res, err
			}
			start := time.Now()
			j, _, err := journal.RecoverFile(path)
			if err != nil {
				return res, err
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return res, err
			}
			w := journal.ResumeWriter(f, j).WithSync(f, journal.SyncOnCommit())
			rr, err := ResumeWith(ctx, j, w, ResumeOptions{Workers: 4})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return res, err
			}
			res.NsPerOp = time.Since(start).Nanoseconds()
			res.ResumedFrom = rr.StartSlot
			whole, err := os.ReadFile(path)
			if err != nil {
				return res, err
			}
			got, err := chaosDigests(whole)
			if err != nil {
				return res, err
			}
			res.BitIdentical = digestsEqual(got, digests)
			return res, nil
		}},
	)

	// Warm-start crash schedule: with the warm-start layer on, its state
	// (carried iterate, decision cache) lives only in memory, as does the
	// P2 skeleton —
	// a kill that lands between reusing that state and commit must resume
	// from the journal alone, re-solve the lost slot with a fresh state,
	// and still land digest-for-digest on the uninterrupted warm run.
	warmCfg := chaosSpec()
	warmCfg.WarmStart = true
	warmCfg = warmCfg.canonical()
	log.printf("chaos: recording %d-slot warm reference run...", warmCfg.Spec.T)
	warmRef, err := chaosRecord(ctx, warmCfg, filepath.Join(dir, "warm-ref.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	warmDigests, err := chaosDigests(warmRef)
	if err != nil {
		return nil, nil, err
	}
	cw := &chaosRun{dir: dir, cfg: warmCfg, ref: warmRef, digests: warmDigests}
	warmLines := bytes.SplitAfter(warmRef, []byte("\n"))
	if n := len(warmLines) - 1; n != 2+2*warmCfg.Spec.T {
		return nil, nil, fmt.Errorf("eval: chaos warm reference journal has %d lines, want %d", n, 2+2*warmCfg.Spec.T)
	}
	wk := pick(1, warmCfg.Spec.T-2)
	// Truncating after slot wk's slot record but before its state checkpoint
	// forces the resume to catch that slot up: the reference run solved it
	// with a live warm-start state, the catch-up re-solves it with a cold
	// one, and the digest verification inside ResumeWith proves they agree.
	warmName := fmt.Sprintf("warm/kill-before-commit-%d", wk)
	warmImage := bytes.Join(warmLines[:stateLine(wk)], nil)
	schedules = append(schedules, schedule{warmName, "kill", func() (ChaosResult, error) {
		r, err := cw.crashResume(ctx, warmName, warmImage)
		r.Kind = "kill"
		return r, err
	}})

	tbl := &Table{
		Title:  fmt.Sprintf("Chaos harness — crash/recovery bit-identity (seed %#x, T=%d)", chaosSeed, cfg.Spec.T),
		Header: []string{"schedule", "kind", "resumed_from", "caught_up", "ms", "bit-identical"},
	}
	var broken []string
	for _, s := range schedules {
		log.printf("chaos %s...", s.name)
		r, err := s.run()
		if err != nil {
			return nil, nil, err
		}
		rep.Results = append(rep.Results, BenchEntry{
			Name:    "chaos/" + r.Schedule,
			Metrics: map[string]float64{"ns_per_op": float64(r.NsPerOp)},
			Info: map[string]float64{
				"seed": float64(chaosSeed), "slots": float64(r.Slots),
				"resumed_from": float64(r.ResumedFrom), "caught_up": float64(r.CaughtUp),
			},
			BitIdentical: &r.BitIdentical,
		})
		tbl.Rows = append(tbl.Rows, []string{
			r.Schedule, r.Kind,
			fmt.Sprintf("%d", r.ResumedFrom),
			fmt.Sprintf("%d", r.CaughtUp),
			fmt.Sprintf("%.2f", float64(r.NsPerOp)/1e6),
			fmt.Sprintf("%v", r.BitIdentical),
		})
		if !r.BitIdentical {
			broken = append(broken, r.Schedule)
		}
	}
	if len(broken) > 0 {
		return tbl, rep, fmt.Errorf("eval: chaos schedules broke bit-identity: %v", broken)
	}
	return tbl, rep, nil
}
