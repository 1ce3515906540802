package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"soral/internal/core"
	"soral/internal/obs/journal"
)

// warmEntry is one configuration's steady-state measurement in the
// warm-start benchmark: per-slot wall-time quantiles and solver-iteration
// means over the post-warmup slots, plus the warm bookkeeping.
type warmEntry struct {
	// name is the configuration: "cold" (WarmStart off — the baseline),
	// "warm" (WarmStart on, same instance), "cache" (WarmStart on over a
	// stationary instance where the decision cache can engage).
	name string
	// samples counts the steady-state slots aggregated into the quantiles
	// (slots past warmstartSteadyAfter, summed over repeats).
	samples int
	// p50Ns and p99Ns are the steady-state per-slot wall-time quantiles.
	p50Ns, p99Ns int64
	// meanIters is the mean solver iteration count per steady-state slot.
	meanIters float64
	// warmSlots counts steady-state slots committed warm (carried iterate
	// accepted, or decision-cache hit), summed over repeats.
	warmSlots int
	// cacheHits counts the slots the decision cache committed, summed over
	// repeats.
	cacheHits int
	// bitIdentical reports that every repeat reproduced the first repeat's
	// per-slot decision digests exactly (the determinism contract; -compare
	// fails unconditionally when this flips true → false).
	bitIdentical bool
}

// warmstartSpec is the default multi-tier instance the warm-start acceptance
// criteria are stated against — the same mid-sized scenario the latency
// experiment measures, so the two benchmarks share a baseline.
func warmstartSpec() RunConfig {
	return RunConfig{
		Spec:      ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, T: 24, Trace: TraceWikipedia, Seed: 7, ReconfWeight: 10},
		Algorithm: "online",
	}
}

// warmstartCacheSpec is the stationary variant: a constant demand trace and
// frozen prices make consecutive slots bit-identical, the regime where the
// digest-keyed decision cache can short-circuit whole solves.
func warmstartCacheSpec() RunConfig {
	cfg := warmstartSpec()
	trace := make([]float64, cfg.Spec.T)
	for i := range trace {
		trace[i] = 1
	}
	cfg.Spec.CustomTrace = trace
	cfg.Spec.ConstPrice = true
	return cfg
}

// warmstartSteadyAfter is the last warmup slot: the acceptance criteria are
// stated over steady state, slots strictly past slot 3 (the first slots pay
// skeleton construction and have no converged iterate to carry).
const warmstartSteadyAfter = 3

// warmstartRepeats re-runs each configuration so the steady-state quantiles
// aggregate a few dozen samples and the determinism check sees real repeats.
const warmstartRepeats = 5

// warmMeasure is one configuration's raw measurement.
type warmMeasure struct {
	entry warmEntry
	durs  []int64 // steady-state per-slot wall times, all repeats
	// slotIters and slotWarm are the first repeat's per-slot solver
	// iteration counts and warm flags, indexed by slot.
	slotIters []int
	slotWarm  []bool
}

func warmstartRun(cfg RunConfig, entry string, warm bool, log Logger) (*warmMeasure, error) {
	cfg = cfg.canonical()
	cfg.WarmStart = warm
	scen, err := Build(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("eval: warmstart scenario: %w", err)
	}
	m := &warmMeasure{entry: warmEntry{name: entry, bitIdentical: true}}
	var refDigests []string
	var iterSum int64
	for r := 0; r < warmstartRepeats; r++ {
		log.printf("warmstart %s run %d/%d (T=%d)...", entry, r+1, warmstartRepeats, scen.In.T)
		// The per-slot report carries everything measured here, so the run
		// records no telemetry, not even into a process default scope.
		suite := NewSuite(scen, cfg.Eps).WithObs(nil).WithJournal(nil).WithHealth(nil)
		run, err := suite.RunConfigured(cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: warmstart %s run %d: %w", entry, r, err)
		}
		if run.Report == nil || len(run.Report.Slots) != scen.In.T {
			return nil, fmt.Errorf("eval: warmstart %s run %d: missing per-slot report", entry, r)
		}
		digests := make([]string, len(run.Decisions))
		for t, d := range run.Decisions {
			digests[t] = journal.Digest(d.X, d.Y, d.Z)
		}
		if r == 0 {
			refDigests = digests
			m.slotIters = make([]int, scen.In.T)
			m.slotWarm = make([]bool, scen.In.T)
			for _, sr := range run.Report.Slots {
				m.slotIters[sr.Slot] = sr.Iterations
				m.slotWarm[sr.Slot] = sr.Warm
			}
		} else if !digestsEqual(digests, refDigests) {
			m.entry.bitIdentical = false
		}
		for _, sr := range run.Report.Slots {
			if sr.Rung == core.RungCache {
				m.entry.cacheHits++
			}
			if sr.Slot <= warmstartSteadyAfter {
				continue
			}
			m.durs = append(m.durs, sr.Duration.Nanoseconds())
			iterSum += int64(sr.Iterations)
			if sr.Warm {
				m.entry.warmSlots++
			}
		}
	}
	m.entry.samples = len(m.durs)
	m.entry.p50Ns = quantileNs(m.durs, 0.50)
	m.entry.p99Ns = quantileNs(m.durs, 0.99)
	if m.entry.samples > 0 {
		m.entry.meanIters = float64(iterSum) / float64(m.entry.samples)
	}
	return m, nil
}

// quantileNs returns the q-quantile of the samples (nearest-rank, on a
// sorted copy): the ceil(q·n)-th smallest, ranked from 1 and clamped to
// [1, n], the rule hist.Quantile uses. 0 when there are none.
func quantileNs(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// warmstartMaxStepRatio bounds the warm path's steady-state mean Newton
// steps as a fraction of the cold path's on the same instance. The bound is
// stated on step counts, which are deterministic, rather than on wall time,
// which also measures the host.
const warmstartMaxStepRatio = 0.5

// Warmstart benchmarks the warm-started incremental re-solve layer against
// the cold baseline on the default multi-tier instance and enforces the
// acceptance criteria: warm steady-state mean Newton steps at most half the
// cold mean, a lower warm steady-state p50 slot latency, strictly fewer
// solver iterations on every warm steady-state slot, the decision cache
// engaging on the stationary instance, and per-entry run-to-run
// determinism. Each configuration is one "warmstart/<name>" entry; the warm
// entry also carries step_ratio (warm mean steps over cold) and speedup_p50
// (cold steady-state p50 over warm). The report is written as
// BENCH_warmstart.json by cmd/soralbench -exp warmstart -json and diffed by
// -compare.
func Warmstart(log Logger) (*Table, *Bench, error) {
	cfg := warmstartSpec()
	cold, err := warmstartRun(cfg, "cold", false, log)
	if err != nil {
		return nil, nil, err
	}
	warm, err := warmstartRun(cfg, "warm", true, log)
	if err != nil {
		return nil, nil, err
	}
	cache, err := warmstartRun(warmstartCacheSpec(), "cache", true, log)
	if err != nil {
		return nil, nil, err
	}

	var speedup, stepRatio float64
	if warm.entry.p50Ns > 0 {
		speedup = float64(cold.entry.p50Ns) / float64(warm.entry.p50Ns)
	}
	if cold.entry.meanIters > 0 {
		stepRatio = warm.entry.meanIters / cold.entry.meanIters
	}
	fewerIters := warm.entry.warmSlots > 0
	for t := warmstartSteadyAfter + 1; t < len(warm.slotIters); t++ {
		if warm.slotWarm[t] && warm.slotIters[t] >= cold.slotIters[t] {
			fewerIters = false
		}
	}

	rep := &Bench{BenchEnv: HostEnv()}
	tbl := &Table{
		Title: fmt.Sprintf("Warm-started re-solve — steady-state slots > %d, %d repeats: warm/cold Newton steps %.2f, p50 speedup %.1f×",
			warmstartSteadyAfter, warmstartRepeats, stepRatio, speedup),
		Header: []string{"entry", "samples", "p50(ms)", "p99(ms)", "iters/slot", "warm", "cache-hits", "bit-identical"},
	}
	for _, m := range []*warmMeasure{cold, warm, cache} {
		e := m.entry
		// p99_ns is context, not a -compare metric: of 100 samples one lies
		// beyond it, so a single slow slot sets it.
		info := map[string]float64{
			"slots": float64(cfg.Spec.T), "samples": float64(e.samples),
			"warm_slots": float64(e.warmSlots), "cache_hits": float64(e.cacheHits),
			"p99_ns": float64(e.p99Ns),
		}
		if m == warm {
			info["speedup_p50"] = speedup
			info["step_ratio"] = stepRatio
		}
		rep.Results = append(rep.Results, BenchEntry{
			Name:         "warmstart/" + e.name,
			Metrics:      map[string]float64{"p50_ns": float64(e.p50Ns), "mean_iters": e.meanIters},
			Info:         info,
			BitIdentical: &e.bitIdentical,
		})
		tbl.Rows = append(tbl.Rows, []string{
			e.name, fmt.Sprintf("%d", e.samples),
			fmt.Sprintf("%.3f", float64(e.p50Ns)/1e6),
			fmt.Sprintf("%.3f", float64(e.p99Ns)/1e6),
			fmt.Sprintf("%.1f", e.meanIters),
			fmt.Sprintf("%d", e.warmSlots),
			fmt.Sprintf("%d", e.cacheHits),
			fmt.Sprintf("%v", e.bitIdentical),
		})
	}

	// Every check runs, so a failure reports each criterion it breaks.
	var fails []error
	for _, m := range []*warmMeasure{cold, warm, cache} {
		if !m.entry.bitIdentical {
			fails = append(fails, fmt.Errorf("entry %q broke run-to-run bit-identity", m.entry.name))
		}
	}
	if warm.entry.warmSlots == 0 {
		fails = append(fails, fmt.Errorf("no steady-state slot committed warm"))
	}
	if cache.entry.cacheHits == 0 {
		fails = append(fails, fmt.Errorf("the decision cache never hit on the stationary instance"))
	}
	if !fewerIters {
		fails = append(fails, fmt.Errorf("a warm slot took no fewer solver iterations than cold"))
	}
	if stepRatio > warmstartMaxStepRatio {
		fails = append(fails, fmt.Errorf("warm mean Newton steps %.1f are %.2f× cold's %.1f, want ≤ %.2f×",
			warm.entry.meanIters, stepRatio, cold.entry.meanIters, warmstartMaxStepRatio))
	}
	if warm.entry.p50Ns >= cold.entry.p50Ns {
		fails = append(fails, fmt.Errorf("warm steady-state p50 %.3f ms is not below cold's %.3f ms",
			float64(warm.entry.p50Ns)/1e6, float64(cold.entry.p50Ns)/1e6))
	}
	if err := errors.Join(fails...); err != nil {
		return tbl, rep, fmt.Errorf("eval: warmstart: %w", err)
	}
	return tbl, rep, nil
}
