// Command soralbench regenerates the data behind every table and figure of
// the paper's evaluation (Section V).
//
// Usage:
//
//	soralbench -exp fig5 -scale small
//	soralbench -exp all -scale medium -csv out/
//	soralbench -exp fig4 -series trace.csv   # dump raw demand traces
//	soralbench -compare old.json new.json    # regression-diff two snapshots
//	soralbench -serve 127.0.0.1:9090 ...     # live /metrics /healthz /runs
//
// With -compare the two BENCH_<name>.json snapshots are paired by
// experiment name and diffed per metric; the process exits 0 when clean, 1
// on a statistically significant regression (see EXPERIMENTS.md for the
// sign-test/min-of-K rule and the -threshold knob), and 2 on a usage or
// parse error.
//
// Experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1 table2 vshape all,
// plus five that are not part of all: lint (per-package sorallint wall time,
// for tracking the cost of the static-analysis gate alongside the solver
// benchmarks; must run from inside the module source tree), kernels
// (serial-vs-parallel timings of the structured linear-algebra kernels with a
// bit-identity check, written as BENCH_kernels.json under -json), chaos
// (seeded deterministic crash/recovery fault schedules — process kills, torn
// writes, transient solver faults — each asserting the recovered run is
// bit-identical to the uninterrupted one; written as BENCH_chaos.json), and
// latency (per-phase p50/p99/p999 of the online pipeline from the
// log-bucketed latency histograms, written as BENCH_latency.json),
// warmstart (cold-vs-warm steady-state slot latency and solver-iteration
// counts of the warm-started incremental re-solve layer, with run-to-run
// determinism verdicts; written as BENCH_warmstart.json), and watch (the
// self-monitoring watchdog against seeded fault traces — a latency spike
// firing the SLO burn-rate alert and an adversarial trace firing the
// competitive-ratio alert — plus the tsdb record/tick overhead budget;
// written as BENCH_watch.json).
// Scales: small (seconds), medium (minutes), paper (the full 18×48×500-hour
// setting; the offline baselines then take tens of minutes each).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"soral/internal/analysis"
	"soral/internal/eval"
	"soral/internal/obs"
	"soral/internal/obs/journal"
	"soral/internal/obs/tsdb"
	"soral/internal/obs/watch"
	"soral/internal/resilience"
	"soral/internal/workload"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|fig8|fig9|fig10|table1|table2|vshape|lint|kernels|chaos|latency|warmstart|watch|all")
		scaleFlag = flag.String("scale", "small", "scenario scale: small|medium|paper")
		csvDir    = flag.String("csv", "", "also write each table as CSV into this directory")
		seriesOut = flag.String("series", "", "write the raw demand traces as CSV to this file (with -exp fig4)")
		fig5Curve = flag.String("fig5series", "", "write one Fig. 5 panel's cumulative cost curves as CSV to this file")
		fig5Trace = flag.String("fig5trace", "wiki", "trace for -fig5series: wiki|worldcup")
		fig5B     = flag.Float64("fig5b", 1000, "reconfiguration weight for -fig5series")
		quiet     = flag.Bool("q", false, "suppress progress logging")

		jsonDir    = flag.String("json", "", "write per-experiment BENCH_<name>.json results into this directory")
		traceOut   = flag.String("trace", "", "write a JSONL telemetry trace to this file")
		metricsOut = flag.String("metrics", "", "write an expvar-style metrics dump to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (with phase labels) to this file")

		compareRun = flag.Bool("compare", false, "diff two BENCH_<name>.json snapshots (old new); exit 1 on regression")
		threshold  = flag.Float64("threshold", 0, "relative worsening τ that fails -compare (default 0.20)")
		serveAddr  = flag.String("serve", "", "serve /metrics, /healthz, and /runs on this address while experiments run")
		watchFlag  = flag.Bool("watch", false, "with -serve: run the self-monitoring watchdog and add /alerts and /timeseries")
		sloFlag    = flag.Duration("slo", 0, "per-slot latency objective for the watchdog's SLO burn-rate alert (implies -watch)")
	)
	flag.Parse()

	if *compareRun {
		compareMain(flag.Args(), *threshold)
		return
	}

	// Ctrl-C cancels the eval fan-outs (parallelRows stops launching rows and
	// returns the context error) instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eval.SetDefaultContext(ctx)

	scale, err := eval.ScaleByName(*scaleFlag)
	if err != nil {
		fatal(err)
	}

	// One registry for the whole process: experiments build their own Suites
	// internally, so the scope is installed as the eval-package default.
	serving := *serveAddr != ""
	var reg *obs.Registry
	var traceSink *obs.JSONLSink
	if *jsonDir != "" || *traceOut != "" || *metricsOut != "" || serving {
		reg = obs.NewRegistry()
		var sink obs.Sink
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			traceSink = obs.NewJSONLSink(f)
			sink = traceSink
		}
		eval.SetDefaultObs(obs.NewScope(reg, sink))
	}
	var srv *obs.Server
	if serving {
		// One journal window spans the whole bench process: every suite the
		// experiments build streams its slot records into /runs (slot indices
		// restart per run — the stream is a live tail, not a single-run
		// journal file), and /healthz aggregates degradation across all of
		// them.
		health := resilience.NewHealth()
		eval.SetDefaultHealth(health)
		feed := journal.NewFeed(0)
		jw := journal.NewWriter(nil).Attach(feed)
		jw.Begin(journal.Header{Algorithm: "bench", GoMaxProcs: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0)})
		eval.SetDefaultJournal(jw)
		defer jw.End(journal.Footer{})
		opts := obs.ServeOptions{
			Registry: reg,
			Health: func() (bool, any) {
				s := health.Snapshot()
				return s.Healthy(), s
			},
			Runs: feed,
		}
		endpoints := "/metrics /healthz /runs"
		if *watchFlag || *sloFlag > 0 {
			// Watchdog over the shared bench registry. No competitive-ratio
			// rules here: experiments sweep ε, so there is no single
			// certificate for the process-wide ratio gauge.
			db := tsdb.New(tsdb.Options{})
			eng := watch.New().Metrics(reg).Journal(jw)
			if *sloFlag > 0 {
				eng.AddRule(watch.SLOBurnRate(reg.LatencyHist("latency.core.slot.seconds"),
					watch.SLOConfig{Objective: *sloFlag}))
			}
			collapse, blowup := watch.WarmStartRules(reg, watch.WarmConfig{})
			eng.AddRule(collapse, blowup,
				watch.DegradationBurst(health, 0),
				watch.FeedDropRate(feed, 0, 0))
			eng.OnAlert(func(a watch.Alert) {
				fmt.Fprintf(os.Stderr, "# watch: %s\n", a)
			})
			sampler := &tsdb.Sampler{DB: db, Reg: reg, Runtime: true, AfterSample: eng.Eval}
			go sampler.Run(ctx, 0)
			opts.Timeseries = db
			opts.Alerts = func() any { return eng.Status() }
			endpoints += " /alerts /timeseries"
		}
		var err error
		srv, err = obs.Serve(ctx, *serveAddr, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# serving http://%s %s\n", srv.Addr(), endpoints)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var log eval.Logger
	if !*quiet {
		log = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	type runner func() (*eval.Table, error)
	exps := map[string]runner{
		"fig4":   func() (*eval.Table, error) { return eval.Fig4(scale, log) },
		"fig5":   func() (*eval.Table, error) { return eval.Fig5(scale, log) },
		"fig6":   func() (*eval.Table, error) { return eval.Fig6(scale, log) },
		"fig7":   func() (*eval.Table, error) { return eval.Fig7(scale, log) },
		"fig8":   func() (*eval.Table, error) { return eval.Fig8(scale, log) },
		"fig9":   func() (*eval.Table, error) { return eval.Fig9(scale, log) },
		"fig10":  func() (*eval.Table, error) { return eval.Fig10(scale, log) },
		"table1": func() (*eval.Table, error) { return eval.Table1(), nil },
		"table2": func() (*eval.Table, error) { return eval.Table2(), nil },
		"vshape": eval.AdversarialVShape,
	}
	var lintRes *analysis.Result
	exps["lint"] = func() (*eval.Table, error) {
		res, err := analysis.Run(analysis.RunConfig{Dir: "."})
		if err != nil {
			return nil, err
		}
		lintRes = res
		return lintTable(res), nil
	}
	// Experiments with their own per-configuration entries leave them here;
	// every other experiment is recorded as one entry of its own name.
	reports := map[string]*eval.Bench{}
	withReport := func(name string, run func() (*eval.Table, *eval.Bench, error)) {
		exps[name] = func() (*eval.Table, error) {
			tbl, rep, err := run()
			reports[name] = rep
			return tbl, err
		}
	}
	withReport("kernels", func() (*eval.Table, *eval.Bench, error) { return eval.Kernels(log) })
	withReport("chaos", func() (*eval.Table, *eval.Bench, error) { return eval.ChaosCtx(ctx, log) })
	withReport("latency", func() (*eval.Table, *eval.Bench, error) { return eval.Latency(log) })
	withReport("warmstart", func() (*eval.Table, *eval.Bench, error) { return eval.Warmstart(log) })
	withReport("watch", func() (*eval.Table, *eval.Bench, error) { return eval.Watch(log) })
	order := []string{"table1", "table2", "fig4", "vshape", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

	var selected []string
	if *expFlag == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			name = strings.TrimSpace(name)
			if _, ok := exps[name]; !ok {
				fatal(fmt.Errorf("unknown experiment %q", name))
			}
			selected = append(selected, name)
		}
	}

	if *seriesOut != "" {
		if err := writeTraces(scale, *seriesOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# wrote traces to %s\n", *seriesOut)
	}
	if *fig5Curve != "" {
		names, series, err := eval.Fig5Series(scale, eval.Trace(*fig5Trace), *fig5B, log)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*fig5Curve)
		if err != nil {
			fatal(err)
		}
		if err := eval.WriteSeriesCSV(f, names, series); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# wrote Fig. 5 curves to %s\n", *fig5Curve)
	}

	for _, name := range selected {
		var before obs.Snapshot
		if reg != nil {
			before = reg.Snapshot()
		}
		start := time.Now()
		tbl, err := exps[name]()
		elapsed := time.Since(start)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if *jsonDir != "" {
			rep := reports[name]
			if rep == nil {
				var lint *analysis.Result
				if name == "lint" {
					lint = lintRes
				}
				rep = experimentBench(name, elapsed, before, reg.Snapshot(), lint)
			}
			if err := writeBench(*jsonDir, name, rep); err != nil {
				fatal(err)
			}
		}
		if err := eval.Render(os.Stdout, tbl); err != nil {
			fatal(err)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
			if err != nil {
				fatal(err)
			}
			if err := eval.WriteCSV(f, tbl); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteText(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# wrote metrics to %s\n", *metricsOut)
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			fatal(fmt.Errorf("writing trace %s: %w", *traceOut, err))
		}
	}
	if srv != nil {
		fmt.Fprintln(os.Stderr, "# experiments finished; serving until interrupted (Ctrl-C to exit)")
		<-ctx.Done()
		<-srv.Done()
	}
}

// compareMain implements -compare: load two BENCH snapshots, diff them, and
// exit 0 (clean), 1 (regression), or 2 (usage/parse error).
func compareMain(args []string, threshold float64) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "soralbench: -compare needs exactly two files: old.json new.json")
		os.Exit(2)
	}
	load := func(path string) ([]eval.BenchEntry, eval.BenchEnv) {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soralbench:", err)
			os.Exit(2)
		}
		defer f.Close()
		entries, env, err := eval.LoadBenchEnv(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soralbench: %s: %v\n", path, err)
			os.Exit(2)
		}
		return entries, env
	}
	oldE, oldEnv := load(args[0])
	newE, newEnv := load(args[1])
	if !oldEnv.Comparable(newEnv) {
		// Different parallel envelopes shift timings and quantiles for
		// machine reasons, not code reasons: warn, never fail.
		fmt.Fprintf(os.Stderr,
			"soralbench: warning: snapshots recorded under different envelopes (old %d cores/GOMAXPROCS %d, new %d cores/GOMAXPROCS %d); timing deltas may reflect the machine, not the code\n",
			oldEnv.Cores, oldEnv.GoMaxProcs, newEnv.Cores, newEnv.GoMaxProcs)
	}
	diff := eval.Compare(oldE, newE, eval.CompareOptions{Threshold: threshold})
	if err := diff.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "soralbench:", err)
		os.Exit(2)
	}
	if diff.Regressed() {
		os.Exit(1)
	}
}

// lintTable renders a lint run as the common table shape so -csv and the
// terminal output work like any other experiment.
func lintTable(res *analysis.Result) *eval.Table {
	tbl := &eval.Table{
		Title:  "sorallint — per-package static-analysis cost",
		Header: []string{"package", "files", "analyze(ms)", "findings"},
	}
	for _, p := range res.Packages {
		tbl.Rows = append(tbl.Rows, []string{
			p.Path,
			fmt.Sprintf("%d", p.Files),
			fmt.Sprintf("%.2f", float64(p.Duration.Nanoseconds())/1e6),
			fmt.Sprintf("%d", len(p.Diagnostics)),
		})
	}
	tbl.Rows = append(tbl.Rows, []string{
		"(load+typecheck)", "",
		fmt.Sprintf("%.2f", float64(res.LoadDuration.Nanoseconds())/1e6),
		fmt.Sprintf("%d total", len(res.Diagnostics)),
	})
	if res.CallGraphDuration > 0 {
		tbl.Rows = append(tbl.Rows, []string{
			"(callgraph+summaries)", "",
			fmt.Sprintf("%.2f", float64(res.CallGraphDuration.Nanoseconds())/1e6),
			"",
		})
	}
	for _, check := range sortedKeys(res.Analyzers) {
		tbl.Rows = append(tbl.Rows, []string{
			"(analyzer) " + check, "",
			fmt.Sprintf("%.2f", float64(res.Analyzers[check].Nanoseconds())/1e6),
			"",
		})
	}
	return tbl
}

// sortedKeys returns the map's keys in alphabetical order so the table and
// JSON output stay deterministic across runs.
func sortedKeys(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// experimentBench records one experiment run as a single entry named after
// it: its wall time as ns_per_op and the solver-iteration counters' deltas
// over the run, attributing the work to the stages that performed it. A
// lint run adds the per-package and per-analyzer sorallint wall times
// (lint_packages.<pkg>, lint_analyzers.<check>, with a "callgraph" analyzer
// entry for the shared call-graph and summary construction) and the one-off
// load cost. The run count (iters, always 1) and the surviving lint finding
// count are info, not regression axes.
func experimentBench(name string, elapsed time.Duration, before, after obs.Snapshot, lint *analysis.Result) *eval.Bench {
	info := map[string]float64{"iters": 1}
	m := map[string]float64{
		"ns_per_op": float64(elapsed.Nanoseconds()),
		"total_solver_iterations": float64(after.Counters[obs.MetricSolverIters] -
			before.Counters[obs.MetricSolverIters]),
	}
	for k, v := range after.Counters {
		if k == obs.MetricSolverIters || !strings.HasSuffix(k, ".iterations") {
			continue
		}
		if d := v - before.Counters[k]; d != 0 {
			m["solver_iterations."+k] = float64(d)
		}
	}
	if lint != nil {
		for _, p := range lint.Packages {
			m["lint_packages."+p.Path] = float64(p.Duration.Nanoseconds())
		}
		for check, d := range lint.Analyzers {
			m["lint_analyzers."+check] = float64(d.Nanoseconds())
		}
		if lint.CallGraphDuration > 0 {
			m["lint_analyzers.callgraph"] = float64(lint.CallGraphDuration.Nanoseconds())
		}
		m["lint_load_ns"] = float64(lint.LoadDuration.Nanoseconds())
		info["lint_findings"] = float64(len(lint.Diagnostics))
	}
	return &eval.Bench{BenchEnv: eval.HostEnv(), Results: []eval.BenchEntry{{Name: name, Metrics: m, Info: info}}}
}

// writeBench writes one snapshot as dir/BENCH_<name>.json.
func writeBench(dir, name string, rep *eval.Bench) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(raw, '\n'), 0o644)
}

func writeTraces(scale eval.Scale, path string) error {
	wiki := workload.Wikipedia(scale.TWiki, scale.BaseSeed)
	wc := workload.WorldCup(scale.TWorldCup, scale.BaseSeed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return eval.WriteSeriesCSV(f, []string{"wikipedia", "worldcup"}, [][]float64{wiki, wc})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soralbench:", err)
	os.Exit(1)
}
