package eval

import (
	"fmt"

	"soral/internal/obs"
)

// LatencyPhases are the instrumented pipeline phases of one online slot, in
// execution order: subproblem assembly (BuildP2 + warm start), the Newton
// loop's Cholesky refactorizations and its backtracking line searches, the
// whole resilient solve (the fallback ladder), the commit bookkeeping
// (attribution, journal, telemetry), and the end-to-end slot. Each is
// recorded as a "latency.<phase>.seconds" log-bucketed histogram by the
// spans in core and convex.
var LatencyPhases = []string{
	"core.assemble",
	"convex.factorize",
	"convex.linesearch",
	"core.solve",
	"core.commit",
	"core.slot",
}

// latencySpec is the scenario under measurement: mid-sized so a single slot
// does real factorization work, repeated enough times that the per-phase
// histograms hold a few hundred samples and the tail quantiles mean
// something.
func latencySpec() RunConfig {
	return RunConfig{
		Spec:      ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, T: 24, Trace: TraceWikipedia, Seed: 7, ReconfWeight: 10},
		Algorithm: "online",
	}
}

// latencyRepeats is how many times the scenario is re-run into the same
// histograms. 5 × 24 slots ≈ 120 samples per slot-level phase (factorize
// and linesearch record once per Newton iteration, so they collect an order
// of magnitude more).
const latencyRepeats = 5

// Latency runs the online pipeline repeatedly with a dedicated registry and
// reports per-phase latency distributions from the log-bucketed histograms
// the core spans feed: one "latency/<phase>" entry per phase with the number
// of online slots measured, the exact sample count, bucket-precision
// p50/p99/p999 and the exact maximum, all in nanoseconds. The report is
// written as BENCH_latency.json by cmd/soralbench -exp latency -json and
// diffed by -compare like any other snapshot.
func Latency(log Logger) (*Table, *Bench, error) {
	cfg := latencySpec().canonical()
	scen, err := Build(cfg.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: latency scenario: %w", err)
	}
	// A private registry isolates the measurement from whatever the process
	// default scope accumulated (other experiments, serving traffic).
	reg := obs.NewRegistry()
	scope := obs.NewScope(reg, nil)
	slots := 0
	for r := 0; r < latencyRepeats; r++ {
		log.printf("latency run %d/%d (T=%d)...", r+1, latencyRepeats, scen.In.T)
		suite := NewSuite(scen, cfg.Eps).WithObs(scope).WithJournal(nil).WithHealth(nil)
		run, err := suite.Online()
		if err != nil {
			return nil, nil, fmt.Errorf("eval: latency run %d: %w", r, err)
		}
		slots += len(run.Decisions)
	}
	rep := &Bench{BenchEnv: HostEnv()}
	tbl := &Table{
		Title: fmt.Sprintf("Per-phase latency over %d online slots (%d cores, GOMAXPROCS %d, workers %d)",
			slots, rep.Cores, rep.GoMaxProcs, rep.Workers),
		Header: []string{"phase", "count", "p50(ms)", "p99(ms)", "p999(ms)", "max(ms)"},
	}
	snap := reg.Snapshot()
	toNs := func(sec float64) float64 { return float64(int64(sec * 1e9)) }
	for _, phase := range LatencyPhases {
		st, ok := snap.Latencies["latency."+phase+".seconds"]
		if !ok || st.Count == 0 {
			return nil, nil, fmt.Errorf("eval: latency phase %q recorded no samples (span wiring broke?)", phase)
		}
		rep.Results = append(rep.Results, BenchEntry{
			Name: "latency/" + phase,
			Metrics: map[string]float64{
				"p50_ns": toNs(st.P50), "p99_ns": toNs(st.P99), "p999_ns": toNs(st.P999),
			},
			Info: map[string]float64{
				"slots": float64(slots), "count": float64(st.Count), "max_ns": toNs(st.Max),
			},
		})
		tbl.Rows = append(tbl.Rows, []string{
			phase, fmt.Sprintf("%d", st.Count),
			fmt.Sprintf("%.3f", st.P50*1e3), fmt.Sprintf("%.3f", st.P99*1e3),
			fmt.Sprintf("%.3f", st.P999*1e3), fmt.Sprintf("%.3f", st.Max*1e3),
		})
	}
	return tbl, rep, nil
}
