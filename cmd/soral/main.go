// Command soral simulates one resource-allocation scenario end to end: it
// builds a multi-tier cloud network instance from a JSON config, runs the
// selected algorithm, and emits the per-slot decisions and running cost as
// CSV on stdout with a cost summary on stderr.
//
// Usage:
//
//	soral -config scenario.json
//	soral -config scenario.json -alg rrhc -window 4 -err 0.15
//	soral -journal run.jsonl                 # flight-record the run
//	soral -journal run.jsonl -fsync every    # ... with per-record durability
//	soral -replay run.jsonl                  # verify it replays bit-identically
//	soral -resume run.jsonl                  # recover a crashed run and finish it
//	soral -serve 127.0.0.1:9090              # live /metrics /healthz /runs
//	soral -serve 127.0.0.1:9090 -watch -slo 5ms   # ... plus /alerts
//	soral -metrics m.prom                    # Prometheus text dump at exit
//
// A config file looks like:
//
//	{
//	  "numTier2": 3, "numTier1": 6, "k": 2, "t": 48,
//	  "trace": "wiki", "reconfWeight": 1000, "seed": 1
//	}
//
// Flags override config values. Without -config a small default scenario is
// used.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"soral/internal/core"
	"soral/internal/eval"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/attr"
	"soral/internal/obs/journal"
	"soral/internal/obs/watch"
	"soral/internal/resilience"
	"soral/internal/workload"
)

type config struct {
	NumTier2     int     `json:"numTier2"`
	NumTier1     int     `json:"numTier1"`
	K            int     `json:"k"`
	T            int     `json:"t"`
	Trace        string  `json:"trace"`
	ReconfWeight float64 `json:"reconfWeight"`
	Seed         int64   `json:"seed"`
	Algorithm    string  `json:"algorithm"`
	Eps          float64 `json:"eps"`
	Window       int     `json:"window"`
	PredictError float64 `json:"predictionError"`
}

func defaultConfig() config {
	return config{
		NumTier2: 3, NumTier1: 6, K: 2, T: 48,
		Trace: "wiki", ReconfWeight: 1000, Seed: 1,
		Algorithm: "online", Eps: 1e-2, Window: 4,
	}
}

func main() {
	var (
		cfgPath   = flag.String("config", "", "path to a JSON scenario config")
		alg       = flag.String("alg", "", "algorithm: online|greedy|offline|lcpm|fhc|rhc|afhc|rfhc|rrhc")
		window    = flag.Int("window", 0, "prediction window for the predictive controllers")
		errRate   = flag.Float64("err", -1, "prediction error rate (e.g. 0.15)")
		eps       = flag.Float64("eps", 0, "regularization parameter ε = ε′")
		traceFile = flag.String("trace-file", "", "hourly demand trace CSV replacing the synthetic workload")
		instance  = flag.String("instance", "", "full model instance JSON (network + inputs); overrides the scenario")
		decOut    = flag.String("decisions", "", "write the decision sequence as JSON to this file")

		traceOut   = flag.String("trace", "", "write a JSONL telemetry trace to this file")
		metricsOut = flag.String("metrics", "", "write the metrics at exit to this file, in the Prometheus text format /metrics serves")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (with phase labels) to this file")
		verbose    = flag.Bool("v", false, "print a one-line resilience summary (ok/recovered/degraded, solver iterations)")
		warm       = flag.Bool("warm", false, "warm-start each slot's solve from the previous decision (incremental re-solve)")

		watchFlag = flag.Bool("watch", false, "run the self-monitoring watchdog: evaluate alert rules against the live metrics once a second")
		sloFlag   = flag.Duration("slo", 0, "per-slot latency objective for the watchdog's SLO burn-rate alert (implies -watch)")

		journalOut = flag.String("journal", "", "write a flight-recorder journal (JSONL) to this file")
		fsyncSpec  = flag.String("fsync", "commit", "journal durability policy: none|commit|every|N (fsync per N records)")
		replayFile = flag.String("replay", "", "replay a recorded journal and verify bit-identical decisions (exits 1 on divergence)")
		resumePath = flag.String("resume", "", "recover an interrupted journal in place and resume the run from its last durable slot")
		serveAddr  = flag.String("serve", "", "serve /metrics, /healthz, and /runs on this address (e.g. 127.0.0.1:9090) until interrupted")
	)
	flag.Parse()

	fsync, err := journal.ParseSyncPolicy(*fsyncSpec)
	if err != nil {
		fatal(err)
	}

	// Ctrl-C cancels the solve (checked at every solver iteration) and, when
	// serving, ends the linger phase.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *replayFile != "" {
		replay(ctx, *replayFile)
		return
	}
	if *resumePath != "" {
		resume(ctx, *resumePath, fsync)
		return
	}

	cfg := defaultConfig()
	if *cfgPath != "" {
		raw, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *cfgPath, err))
		}
	}
	if *alg != "" {
		cfg.Algorithm = *alg
	}
	if *window > 0 {
		cfg.Window = *window
	}
	if *errRate >= 0 {
		cfg.PredictError = *errRate
	}
	if *eps > 0 {
		cfg.Eps = *eps
	}

	// Telemetry registry: needed for file dumps, the verbose summary, the
	// /metrics endpoint, and the watchdog.
	serving := *serveAddr != ""
	watching := *watchFlag || *sloFlag > 0
	var reg *obs.Registry
	var traceSink *obs.JSONLSink
	if *traceOut != "" || *metricsOut != "" || *verbose || serving || watching {
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

	var health *resilience.Health
	if serving || watching {
		health = resilience.NewHealth()
		eval.SetDefaultHealth(health)
	}

	// Flight recorder: a durable file via -journal, a live feed via -serve,
	// or both teed through one writer. A write or fsync failure flips
	// /healthz to 503: a controller that cannot persist its commitments must
	// not look healthy.
	var jw *journal.Writer
	var feed *journal.Feed
	if *journalOut != "" || serving {
		var jfile *os.File
		if *journalOut != "" {
			f, err := os.Create(*journalOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			jfile = f
		}
		if serving {
			feed = journal.NewFeed(0)
		}
		if jfile != nil {
			jw = journal.NewWriter(jfile).WithSync(jfile, fsync)
		} else {
			jw = journal.NewWriter(nil)
		}
		jw.Attach(feed)
		jw.OnError(func(err error) {
			health.Fail("journal", err)
			fmt.Fprintln(os.Stderr, "soral: journal:", err)
		})
	}

	// Watchdog: a ticker goroutine evaluates the alert rules against the
	// registry every second. Critical alerts flip /healthz to 503 via
	// Health.Fail; every transition goes to stderr and (when journaling) the
	// journal.
	var eng *watch.Engine
	if watching {
		eng = watch.New().Metrics(reg).Journal(jw).
			AddRule(watch.Standard(reg, attr.Certificate(cfg.Eps), *sloFlag, health, feed)...)
		eng.OnAlert(func(a watch.Alert) {
			fmt.Fprintln(os.Stderr, "watch:", a)
			if a.Severity == watch.SeverityCritical && a.State == watch.StateFiring {
				health.Fail("watch", errors.New(a.String()))
			}
		})
		go runWatch(ctx, reg, eng, watchEvery)
	}

	var srv *obs.Server
	if serving {
		opts := obs.ServeOptions{
			Registry: reg,
			Health: func() (bool, any) {
				s := health.Snapshot()
				return s.Healthy(), s
			},
			Runs: feed,
		}
		if eng != nil {
			e := eng
			opts.Alerts = func() any { return e.Status() }
		}
		var err error
		srv, err = obs.Serve(ctx, *serveAddr, opts)
		if err != nil {
			fatal(err)
		}
		endpoints := "/metrics /healthz /runs"
		if eng != nil {
			endpoints += " /alerts"
		}
		fmt.Fprintf(os.Stderr, "serving:          http://%s %s\n", srv.Addr(), endpoints)
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

	runCfg := eval.RunConfig{
		Algorithm:    cfg.Algorithm,
		Eps:          cfg.Eps,
		Window:       cfg.Window,
		PredictError: cfg.PredictError,
		PredictSeed:  cfg.Seed + 101,
		WarmStart:    *warm,
	}

	var run *eval.Run
	var scen *eval.Scenario
	if *instance != "" {
		// External instances carry no scenario spec, so the journal gets a
		// header without an embedded config: auditable, not replayable.
		f, oerr := os.Open(*instance)
		if oerr != nil {
			fatal(oerr)
		}
		net, in, oerr := model.ReadInstance(f)
		f.Close()
		if oerr != nil {
			fatal(oerr)
		}
		scen = &eval.Scenario{Net: net, In: in}
		run, err = eval.RecordInstance(ctx, scen, runCfg, jw)
	} else {
		spec := eval.ScenarioSpec{
			NumTier2: cfg.NumTier2, NumTier1: cfg.NumTier1, K: cfg.K, T: cfg.T,
			Trace: eval.Trace(cfg.Trace), Seed: cfg.Seed, ReconfWeight: cfg.ReconfWeight,
		}
		if *traceFile != "" {
			f, oerr := os.Open(*traceFile)
			if oerr != nil {
				fatal(oerr)
			}
			trace, oerr := workload.LoadCSV(f)
			f.Close()
			if oerr != nil {
				fatal(oerr)
			}
			spec.CustomTrace = trace
			if cfg.T > len(trace) {
				spec.T = len(trace)
			}
		}
		runCfg.Spec = spec
		run, scen, err = eval.Record(ctx, runCfg, jw)
	}
	if err != nil {
		fatal(err)
	}
	if jw != nil {
		if jerr := jw.Err(); jerr != nil {
			fatal(fmt.Errorf("writing journal: %w", jerr))
		}
		if *journalOut != "" {
			fmt.Fprintf(os.Stderr, "journal:          %s\n", *journalOut)
		}
	}

	writeDecisions(scen, run)
	if *decOut != "" {
		f, err := os.Create(*decOut)
		if err != nil {
			fatal(err)
		}
		if err := model.WriteDecisions(f, scen.Net, run.Decisions); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "decisions:        %s\n", *decOut)
	}
	c := run.Cost
	fmt.Fprintf(os.Stderr, "algorithm:        %s\n", run.Algorithm)
	fmt.Fprintf(os.Stderr, "slots:            %d\n", len(run.Decisions))
	fmt.Fprintf(os.Stderr, "allocation cost:  %.2f (tier-2 %.2f, network %.2f)\n",
		c.Allocation(), c.AllocT2, c.AllocNet)
	fmt.Fprintf(os.Stderr, "reconfiguration:  %.2f (tier-2 %.2f, network %.2f)\n",
		c.Reconfiguration(), c.ReconfT2, c.ReconfNet)
	fmt.Fprintf(os.Stderr, "total cost:       %.2f\n", c.Total())
	fmt.Fprintf(os.Stderr, "elapsed:          %v\n", run.Elapsed)

	if *verbose {
		var ok, rec, deg, iters int
		if run.Report != nil {
			for _, s := range run.Report.Slots {
				switch s.Status {
				case core.SlotOK:
					ok++
				case core.SlotRecovered:
					rec++
				case core.SlotDegraded:
					deg++
				}
			}
			iters = run.Report.TotalIterations()
		}
		if iters == 0 && reg != nil {
			// Non-online algorithms have no Report; fall back to the
			// process-wide counter.
			iters = int(reg.Counter(obs.MetricSolverIters))
		}
		fmt.Fprintf(os.Stderr, "resilience:       %d ok, %d recovered, %d degraded, %d solver iterations\n",
			ok, rec, deg, iters)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics:          %s\n", *metricsOut)
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			fatal(fmt.Errorf("writing trace %s: %w", *traceOut, err))
		}
		fmt.Fprintf(os.Stderr, "trace:            %s\n", *traceOut)
	}

	if srv != nil {
		fmt.Fprintf(os.Stderr, "serving:          run finished; Ctrl-C to exit\n")
		<-ctx.Done()
		<-srv.Done()
	}
}

// watchEvery is the watchdog's tick period.
const watchEvery = time.Second

// runWatch ticks the watchdog every period until ctx is canceled. Each tick
// collects the Go runtime gauges into reg, so /metrics carries them, and then
// evaluates eng's rules. The first tick is immediate, so a short run still
// arms the warm-start baselines and evaluates its rules.
func runWatch(ctx context.Context, reg *obs.Registry, eng *watch.Engine, every time.Duration) {
	var buf []metrics.Sample
	tick := func(now time.Time) {
		buf = obs.CollectRuntime(reg, buf)
		eng.Eval(now.UnixNano())
	}
	tick(time.Now())
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			tick(now)
		}
	}
}

// replay re-runs a recorded journal and verifies every slot's decision
// digest; divergence exits 1 so CI can gate on determinism.
func replay(ctx context.Context, path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	j, err := journal.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	res, err := eval.Replay(ctx, j)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "replay:           %s, %d recorded slots\n", res.Algorithm, res.Slots)
	for _, m := range res.Advisories {
		fmt.Fprintf(os.Stderr, "replay: slot %d %s advisory: got %s, expected %s\n",
			m.Slot, m.Field, m.Got, m.Want)
	}
	if res.Clean() {
		fmt.Fprintf(os.Stderr, "replay:           bit-identical\n")
		return
	}
	for _, m := range res.Mismatches {
		fmt.Fprintf(os.Stderr, "replay: slot %d %s diverged: got %s want %s\n",
			m.Slot, m.Field, m.Got, m.Want)
	}
	os.Exit(1)
}

// resume recovers an interrupted journal in place (truncating a torn tail)
// and finishes the run, appending the remaining slots to the same file under
// the given durability policy.
func resume(ctx context.Context, path string, fsync journal.SyncPolicy) {
	j, info, err := journal.RecoverFile(path)
	if err != nil {
		fatal(err)
	}
	if info.Torn {
		fmt.Fprintf(os.Stderr, "recover:          torn tail at line %d truncated (%d bytes dropped)\n",
			info.TornLine, info.DroppedBytes)
	}
	fmt.Fprintf(os.Stderr, "recover:          last durable slot %d\n", info.LastSlot)
	if info.Complete {
		fmt.Fprintf(os.Stderr, "resume:           journal is complete (footer present); nothing to do\n")
		return
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := journal.ResumeWriter(f, j).WithSync(f, fsync).OnError(func(err error) {
		fmt.Fprintln(os.Stderr, "soral: journal:", err)
	})
	res, err := eval.Resume(ctx, j, w)
	if err != nil {
		fatal(err)
	}
	if res.CaughtUp > 0 {
		fmt.Fprintf(os.Stderr, "resume:           re-verified %d recorded slots past the last checkpoint\n", res.CaughtUp)
	}
	fmt.Fprintf(os.Stderr, "resume:           %s finished from slot %d (%d slots decided)\n",
		res.Algorithm, res.StartSlot, res.Resumed)
	fmt.Fprintf(os.Stderr, "total cost:       %.2f\n", res.TotalCost)
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func writeDecisions(scen *eval.Scenario, run *eval.Run) {
	n := scen.Net
	fmt.Print("t,workload")
	for i := 0; i < n.NumTier2; i++ {
		fmt.Printf(",x_cloud%d", i)
	}
	fmt.Println(",y_total,cum_cost")
	for t, d := range run.Decisions {
		fmt.Printf("%d,%.4f", t, scen.In.Workload[t][0])
		for i := 0; i < n.NumTier2; i++ {
			fmt.Printf(",%.4f", d.GroupSumT2(n, i))
		}
		var ySum float64
		for p := range d.Y {
			ySum += d.Y[p]
		}
		fmt.Printf(",%.4f,%.4f\n", ySum, run.CumCost[t])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soral:", err)
	os.Exit(1)
}
