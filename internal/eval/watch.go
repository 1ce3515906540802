package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"soral/internal/linalg"
	"soral/internal/obs"
	"soral/internal/obs/attr"
	"soral/internal/obs/journal"
	"soral/internal/obs/tsdb"
	"soral/internal/obs/watch"
)

// watchEpochNS anchors the deterministic journal clock: repeats stamp the
// same t_ns sequence, so journal bytes can be compared bit-for-bit.
const watchEpochNS = int64(1_700_000_000_000_000_000)

// watchClock returns a deterministic writer clock: each stamp advances 1µs.
func watchClock() func() time.Time {
	var n int64
	return func() time.Time {
		n++
		return time.Unix(0, watchEpochNS+n*1000)
	}
}

// watchSLOTrial drives the SLO burn-rate detector through a seeded latency
// trace — healthy slots, a sustained spike, recovery — with the sampler and
// engine ticking on a manual clock. It returns the raw journal bytes (for
// the bit-identity check), the parsed journal, and the fire/resolve ticks.
func watchSLOTrial() ([]byte, *journal.Journal, int, int, error) {
	reg := obs.NewRegistry()
	h := reg.LatencyHist("latency.core.slot.seconds")
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	jw.SetClock(watchClock())
	jw.Begin(journal.Header{Algorithm: "watch-slo", GoMaxProcs: runtime.GOMAXPROCS(0), Workers: 1})

	eng := watch.New().
		AddRule(watch.SLOBurnRate(h, watch.SLOConfig{
			Objective: 5 * time.Millisecond, Target: 0.99,
			ShortWindow: 3, LongWindow: 9, MaxBurn: 10,
		})).
		Metrics(reg).Journal(jw)
	db := tsdb.New(tsdb.Options{Resolution: time.Second, Retention: time.Hour})
	sampler := &tsdb.Sampler{DB: db, Reg: reg, AfterSample: eng.Eval}

	// The seeded trace: per tick, 20 slots whose latency jitters ±10% around
	// the phase mean. Healthy phase 1ms (under the 5ms objective), spike
	// phase 50ms (every slot burns budget), recovery back to 1ms.
	rng := rand.New(rand.NewSource(7))
	firedTick, resolvedTick := -1, -1
	tick := 0
	base := time.Unix(0, watchEpochNS)
	phase := func(meanSeconds float64, ticks int) {
		for i := 0; i < ticks; i++ {
			for k := 0; k < 20; k++ {
				h.Record(meanSeconds * (0.9 + 0.2*rng.Float64()))
			}
			sampler.Tick(base.Add(time.Duration(tick) * time.Second))
			st := eng.Status()
			if firedTick < 0 && len(st.Firing) > 0 {
				firedTick = tick
			}
			if firedTick >= 0 && resolvedTick < 0 && len(st.Firing) == 0 {
				resolvedTick = tick
			}
			tick++
		}
	}
	phase(1e-3, 12) // healthy: burn 0
	phase(50e-3, 9) // spike: both windows saturate past MaxBurn
	phase(1e-3, 12) // recovery: the short window flushes clean
	jw.End(journal.Footer{})
	if err := jw.Err(); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("eval: watch slo journal: %w", err)
	}
	j, err := journal.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("eval: watch slo journal read-back: %w", err)
	}
	return buf.Bytes(), j, firedTick, resolvedTick, nil
}

// watchRatioSpec is the seeded adversarial instance: a thrashing demand
// trace (full load alternating with near-idle every hour) under a high
// reconfiguration weight, run with ε = 0.5 so the normalized certificate
// 1+2/ε = 5 sits far below the trajectory's actual CumCost/CumLB ratio —
// the regime the critical competitive-ratio alert exists for.
func watchRatioSpec() RunConfig {
	trace := make([]float64, 24)
	for i := range trace {
		trace[i] = 0.05
		if i%2 == 0 {
			trace[i] = 1
		}
	}
	return RunConfig{
		Spec:      ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, T: 24, Seed: 7, ReconfWeight: 100, CustomTrace: trace},
		Algorithm: "online",
		Eps:       0.5,
	}
}

// watchRatioTrial records the adversarial run to a journal, then feeds the
// post-run registry through the sampler so the competitive-ratio rules
// evaluate against the live attr.competitive_ratio gauge. The journal
// carries the run's config, slots, and the alert records, so Replay can
// reconcile all of it.
func watchRatioTrial(log Logger) (*journal.Journal, []journal.AlertRecord, float64, float64, *obs.Registry, error) {
	cfg := watchRatioSpec().canonical()
	scen, err := Build(cfg.Spec)
	if err != nil {
		return nil, nil, 0, 0, nil, fmt.Errorf("eval: watch ratio scenario: %w", err)
	}
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	jw.SetClock(watchClock())
	suite := NewSuite(scen, cfg.Eps).WithObs(obs.NewScope(reg, nil)).WithJournal(jw).WithHealth(nil)
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, nil, 0, 0, nil, fmt.Errorf("eval: watch ratio config: %w", err)
	}
	jw.Begin(journal.Header{
		Algorithm:    cfg.Algorithm,
		ConfigDigest: journal.DigestBytes(raw),
		Config:       raw,
		Seed:         cfg.Spec.Seed,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Workers:      linalg.ResolveWorkers(suite.Cfg.CoreOpts.Solver.Workers),
	})
	run, err := suite.RunConfigured(cfg)
	if err != nil {
		return nil, nil, 0, 0, nil, fmt.Errorf("eval: watch ratio run: %w", err)
	}

	cert := attr.Certificate(cfg.Eps)
	approach, exceeded := watch.CompetitiveRatioRules(reg, cert, 0.9, 1)
	eng := watch.New().AddRule(approach, exceeded).Metrics(reg).Journal(jw)
	db := tsdb.New(tsdb.Options{Resolution: time.Second, Retention: time.Hour})
	sampler := &tsdb.Sampler{DB: db, Reg: reg, AfterSample: eng.Eval}
	sampler.Tick(time.Unix(0, watchEpochNS))
	jw.End(journal.Footer{TotalCost: run.Cost.Total()})
	if err := jw.Err(); err != nil {
		return nil, nil, 0, 0, nil, fmt.Errorf("eval: watch ratio journal: %w", err)
	}
	j, err := journal.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, 0, 0, nil, fmt.Errorf("eval: watch ratio journal read-back: %w", err)
	}
	log.printf("watch ratio run: CumCost/CumLB %.4f vs certificate %.4f, %d alert records",
		reg.Gauge("attr.competitive_ratio"), cert, len(j.Alerts))
	return j, j.Alerts, reg.Gauge("attr.competitive_ratio"), cert, reg, nil
}

// watchRecordCost measures the tsdb record hot path: ns/op over a large
// batch and the allocation count (taken as the minimum Mallocs delta over a
// few attempts, so a stray background allocation cannot fail the gate — the
// path itself must be allocation-free).
func watchRecordCost() (nsPerOp float64, allocs float64) {
	db := tsdb.New(tsdb.Options{Resolution: time.Second, Retention: time.Minute})
	s := db.Series("watch.bench.record")
	const n = 1 << 17
	minAllocs := ^uint64(0)
	var best time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			s.Record(int64(i), float64(i))
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d < minAllocs {
			minAllocs = d
		}
		if attempt == 0 || elapsed < best {
			best = elapsed
		}
	}
	return float64(best.Nanoseconds()) / float64(n), float64(minAllocs) / float64(n)
}

// watchTickCost measures one full Sampler.Tick (registry snapshot plus one
// column of series writes) over the post-run registry, as the median of a
// few batches.
func watchTickCost(reg *obs.Registry) int64 {
	db := tsdb.New(tsdb.Options{Resolution: time.Second, Retention: 15 * time.Minute})
	sampler := &tsdb.Sampler{DB: db, Reg: reg, Runtime: true}
	const perBatch = 64
	base := time.Unix(0, watchEpochNS)
	var batches []int64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			sampler.Tick(base.Add(time.Duration(b*perBatch+i) * time.Second))
		}
		batches = append(batches, time.Since(start).Nanoseconds()/perBatch)
	}
	return quantileNs(batches, 0.5)
}

// alertRecordsEqual compares two journaled alert sequences field by field
// (CRC included — the lines must be byte-equivalent).
func alertRecordsEqual(a, b []journal.AlertRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Watch benchmarks the self-monitoring watchdog end to end and enforces the
// acceptance criteria: the seeded latency-spike trace fires and resolves the
// SLO burn-rate alert, the seeded adversarial trace fires the critical
// competitive-ratio alert, both alert trails are journaled and reproduce
// bit-identically across repeats (the adversarial journal additionally
// replays clean with the alerts surfaced as advisories), and monitoring
// costs stay under 1% of the slot p50 with an allocation-free tsdb record
// path. The report is written as BENCH_watch.json by cmd/soralbench -exp
// watch -json and diffed by -compare, one "watch/<scenario>" entry each:
//
//   - slo-spike: the sample ticks at which the burn-rate alert fired and
//     resolved, and the journaled alert count; bit-identical when the
//     journal bytes repeat exactly.
//   - ratio-adversarial: the journaled alert count and the final CumCost/
//     CumLB ratio against its 1+2/ε certificate; bit-identical when the
//     alert records repeat and the journal replays clean.
//   - overhead: the tsdb Series.Record cost (record_ns_per_op,
//     record_allocs), one Sampler.Tick over a post-run registry (tick_ns),
//     the slot p50 and their ratio (overhead_frac); bit-identical when the
//     record path allocates nothing.
func Watch(log Logger) (*Table, *Bench, error) {
	// --- SLO burn rate on the seeded spike trace, twice for bit-identity.
	log.printf("watch slo: seeded latency-spike trace (2 repeats)...")
	bytes1, j1, fired, resolved, err := watchSLOTrial()
	if err != nil {
		return nil, nil, err
	}
	bytes2, _, _, _, err := watchSLOTrial()
	if err != nil {
		return nil, nil, err
	}
	sloIdentical := bytes.Equal(bytes1, bytes2)

	// --- Competitive ratio on the adversarial run, twice for bit-identity.
	log.printf("watch ratio: adversarial thrashing trace (2 repeats)...")
	j, alerts1, ratio, cert, ratioReg, err := watchRatioTrial(log)
	if err != nil {
		return nil, nil, err
	}
	_, alerts2, _, _, _, err := watchRatioTrial(log)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Replay(DefaultContext(), j)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: watch ratio replay: %w", err)
	}
	alertAdvisories := 0
	for _, adv := range rep.Advisories {
		if adv.Field == "alert" {
			alertAdvisories++
		}
	}
	ratioIdentical := alertRecordsEqual(alerts1, alerts2) && rep.Clean()

	// --- Monitoring overhead against the adversarial run's slot p50.
	log.printf("watch overhead: tsdb record path and sampler tick...")
	recordNs, recordAllocs := watchRecordCost()
	tickNs := watchTickCost(ratioReg)
	slotP50 := int64(ratioReg.Snapshot().Latencies["latency.core.slot.seconds"].P50 * 1e9)
	//sorallint:ignore floatcmp allocs/op is a mallocs-delta ratio; the zero-allocation verdict is exact by construction
	allocFree := recordAllocs == 0
	var overheadFrac float64
	if slotP50 > 0 {
		overheadFrac = float64(tickNs) / float64(slotP50)
	}

	report := &Bench{BenchEnv: HostEnv(), Results: []BenchEntry{
		{Name: "watch/slo-spike",
			Metrics:      map[string]float64{"fired_tick": float64(fired), "alerts": float64(len(j1.Alerts))},
			Info:         map[string]float64{"resolved_tick": float64(resolved)},
			BitIdentical: &sloIdentical},
		{Name: "watch/ratio-adversarial",
			Metrics:      map[string]float64{"alerts": float64(len(alerts1)), "ratio": ratio},
			Info:         map[string]float64{"certificate": cert},
			BitIdentical: &ratioIdentical},
		{Name: "watch/overhead",
			Metrics: map[string]float64{
				"record_ns_per_op": recordNs, "tick_ns": float64(tickNs), "overhead_frac": overheadFrac,
			},
			Info:         map[string]float64{"record_allocs": recordAllocs, "slot_p50_ns": float64(slotP50)},
			BitIdentical: &allocFree},
	}}
	tbl := &Table{
		Title: fmt.Sprintf("Watchdog — seeded fault traces and monitoring overhead (tick %.1fµs vs slot p50 %.1fµs)",
			float64(tickNs)/1e3, float64(slotP50)/1e3),
		Header: []string{"scenario", "fired@", "resolved@", "alerts", "value", "threshold", "bit-identical"},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"slo-spike", fmt.Sprintf("%d", fired), fmt.Sprintf("%d", resolved),
			fmt.Sprintf("%d", len(j1.Alerts)), "burn>=10", "10", fmt.Sprintf("%v", sloIdentical)},
		[]string{"ratio-adversarial", "post-run", "-", fmt.Sprintf("%d", len(alerts1)),
			fmt.Sprintf("%.2f", ratio), fmt.Sprintf("%.2f", cert), fmt.Sprintf("%v", ratioIdentical)},
		[]string{"overhead", "-", "-", "-",
			fmt.Sprintf("%.2f%% of p50", 100*overheadFrac),
			"1%", fmt.Sprintf("%v", allocFree)},
	)

	// --- Acceptance criteria.
	if fired < 0 {
		return tbl, report, fmt.Errorf("eval: watch: SLO burn-rate never fired on the seeded spike")
	}
	if resolved < 0 {
		return tbl, report, fmt.Errorf("eval: watch: SLO burn-rate never resolved after recovery")
	}
	if !sloIdentical {
		return tbl, report, fmt.Errorf("eval: watch: slo-spike journal is not bit-identical across repeats")
	}
	criticalFired := false
	for _, a := range alerts1 {
		if a.Rule == watch.RuleRatioExceeded && a.State == journal.AlertFiring {
			criticalFired = true
		}
	}
	if !criticalFired {
		return tbl, report, fmt.Errorf("eval: watch: competitive-ratio alert did not fire (ratio %.4f vs certificate %.4f)", ratio, cert)
	}
	if !rep.Clean() {
		return tbl, report, fmt.Errorf("eval: watch: adversarial journal did not replay bit-identically (%d mismatches)", len(rep.Mismatches))
	}
	if alertAdvisories != len(alerts1) {
		return tbl, report, fmt.Errorf("eval: watch: replay surfaced %d alert advisories, want %d", alertAdvisories, len(alerts1))
	}
	if !ratioIdentical {
		return tbl, report, fmt.Errorf("eval: watch: adversarial alert records differ across repeats")
	}
	if !allocFree {
		return tbl, report, fmt.Errorf("eval: watch: tsdb record path allocates (%.3g allocs/op)", recordAllocs)
	}
	if slotP50 > 0 && overheadFrac >= 0.01 {
		return tbl, report, fmt.Errorf("eval: watch: sampler tick %.0fns is %.2f%% of slot p50 %.0fns (budget 1%%)",
			float64(tickNs), 100*overheadFrac, float64(slotP50))
	}
	return tbl, report, nil
}
