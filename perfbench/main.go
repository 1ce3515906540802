// Command perfbench measures the online algorithm slot by slot: the time
// from a slot's inputs to a durably journaled decision, the set-up before
// the first timed slot, memory, and the decisions' cost against a certified
// lower bound. README.md describes the workloads and the metrics.
//
//	perfbench --workload cold-dense --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 they are the
// per-layer ones of a traced run. The process exits 1 when a correctness
// check fails, and --spread N reruns a workload and reports each metric's
// spread instead.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"soral/internal/linalg"
	"soral/internal/obs"
)

func main() { os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr)) }

// setupProbes is the number of fresh processes, besides the run's own,
// that each time one more set-up; setup_s and peak_rss_mb are medians
// over all of them.
const setupProbes = 4

// traceDir is where a traced run writes its spans.
var traceDir = filepath.Join(".bench_build", "traces")

type config struct {
	w        *workload
	seed     int64
	seconds  float64
	trace    bool
	probes   int
	traceOut string
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-dense, warm-bursty or steady-cache")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	spread := fs.Int("spread", 0, "rerun the workload this many times, with seeds seed, seed+1, ..., and report each metric's spread")
	probe := fs.Int("probe", 0, "internal: run one round of episodes this many slots long and print its set-up time, peak RSS and decision digest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *probe < 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, probes: setupProbes, traceOut: traceDir}
	switch {
	case *probe > 0:
		// The parent passes its episode length, which a test shortens.
		if *probe <= w.warmup {
			fmt.Fprintf(stderr, "perfbench: %s needs episodes longer than its %d warm-up slots\n", w.name, w.warmup)
			return 2
		}
		custom := *w
		custom.horizon = *probe
		cfg.w = &custom
		err = runProbe(cfg, stdout)
	case *spread > 0:
		err = runSpread(cfg, *spread, stdout, stderr)
	default:
		var ok bool
		ok, err = runBench(cfg, stdout, stderr)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envelope is the machine and configuration a result belongs to; results
// from different envelopes are not comparable.
type envelope struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"linalg_workers"`
	GoVersion  string `json:"go_version"`
	JournalFS  string `json:"journal_fs"`
}

// runInfo is printed before the result line: the envelope, how much was
// timed, and the decision digest another run of the same seed must repeat.
type runInfo struct {
	Envelope envelope `json:"envelope"`
	Trace    bool     `json:"trace"`
	Rounds   int      `json:"rounds"`
	// RoundSlotsPerS is each round's throughput, in order: the series the
	// median is taken over.
	RoundSlotsPerS []float64 `json:"round_slots_per_s"`
	TimedSlots     int       `json:"timed_slots"`
	Horizon        int       `json:"horizon"`
	Digest         string    `json:"digest"`
	// SetupS lists every set-up time behind setup_s: this process's first,
	// then one per probe.
	SetupS []float64 `json:"setup_s,omitempty"`
	// PeakRSSMiB lists the peak RSS behind peak_rss_mb, in the same order.
	PeakRSSMiB []float64 `json:"peak_rss_mib,omitempty"`
	Problems   []string  `json:"problems,omitempty"`
}

func (r *runner) envelope() envelope {
	fsType := "none"
	if r.jf != nil {
		fsType = r.jf.fsType() + " (memfd)"
	}
	return envelope{
		Workload: r.w.name, Seed: r.seed,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers: linalg.ResolveWorkers(0), GoVersion: runtime.Version(),
		JournalFS: fsType,
	}
}

// runBench measures one workload and prints the result. It reports whether
// every correctness check passed.
func runBench(cfg config, stdout, stderr io.Writer) (bool, error) {
	r, err := newRunner(cfg.w, cfg.seed)
	if err != nil {
		return false, err
	}
	defer r.close()
	window := time.Duration(cfg.seconds * float64(time.Second))

	var res result
	var info runInfo
	var problems []string
	if !cfg.trace {
		p, st, err := r.run(window, episodeOpts{})
		if err != nil {
			return false, err
		}
		setups := []float64{st.total.Seconds()}
		rss := []float64{float64(p.peakRSS)}
		res.Attempted, res.Failed, problems = p.attempted, p.failed, p.problems
		for i := 0; i < cfg.probes; i++ {
			pr, err := spawnProbe(cfg, stderr)
			if err != nil {
				return false, err
			}
			setups = append(setups, pr.SetupS)
			rss = append(rss, float64(pr.PeakRSS))
			res.Attempted += pr.Attempted
			res.Failed += pr.Failed
			if pr.Digest != r.digest() {
				res.Failed += pr.Attempted - pr.Failed
				problems = append(problems, fmt.Sprintf("probe %d: decision digest %s, this process %s", i+1, pr.Digest, r.digest()))
			}
		}
		res.Metrics = endToEndMetrics(p, r, res, setups, rss)
		info.SetupS = setups
		for _, b := range rss {
			info.PeakRSSMiB = append(info.PeakRSSMiB, b/(1<<20))
		}
		info.Rounds, info.TimedSlots = len(p.rounds), p.timedSlots
		for _, rd := range p.rounds {
			info.RoundSlotsPerS = append(info.RoundSlotsPerS, rd.slotsPerS)
		}
	} else {
		// Untraced and traced rounds alternate, so a change in the host's
		// speed during the run weighs on both alike.
		reg, tr := obs.NewRegistry(), newTracer()
		plain, traced := &pass{}, &pass{}
		var st setupTimes
		for len(traced.rounds) < minRounds || plain.wall < window || traced.wall < window {
			first, err := r.round(plain, episodeOpts{measureRT: true})
			if err != nil {
				return false, err
			}
			if len(plain.rounds) == 1 {
				st = first
			}
			if _, err := r.round(traced, episodeOpts{reg: reg, tr: tr}); err != nil {
				return false, err
			}
		}
		res.Attempted = plain.attempted + traced.attempted
		res.Failed = plain.failed + traced.failed
		problems = append(plain.problems, traced.problems...)
		res.Metrics = layerMetrics(r, plain, traced, reg, tr, st)
		info.Rounds, info.TimedSlots = len(traced.rounds), traced.timedSlots
		path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := tr.writeFile(path); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	info.Envelope, info.Trace, info.Horizon = r.envelope(), cfg.trace, cfg.w.horizon
	info.Digest, info.Problems = r.digest(), problems
	for _, msg := range problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	if err := printJSON(stdout, info); err != nil {
		return false, err
	}
	return res.Correct, printJSON(stdout, res)
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// probeResult is what one set-up probe reports.
type probeResult struct {
	SetupS    float64 `json:"setup_s"`
	PeakRSS   int64   `json:"peak_rss_bytes"`
	Digest    string  `json:"digest"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

// runProbe runs one checked round in this fresh process and prints its
// set-up time, peak RSS and decision digest.
func runProbe(cfg config, stdout io.Writer) error {
	r, err := newRunner(cfg.w, cfg.seed)
	if err != nil {
		return err
	}
	defer r.close()
	p, st, err := r.probe()
	if err != nil {
		return err
	}
	return printJSON(stdout, probeResult{SetupS: st.total.Seconds(), PeakRSS: p.peakRSS,
		Digest: r.digest(), Attempted: p.attempted, Failed: p.failed})
}

// spawnProbe times one more set-up, and measures one more peak RSS, in a
// fresh process: a first set-up pays page faults and heap growth a warm
// process would not, and the peak depends on when the collector ran.
func spawnProbe(cfg config, stderr io.Writer) (probeResult, error) {
	var pr probeResult
	out, err := runSelf(stderr, "--probe", fmt.Sprint(cfg.w.horizon), "--workload", cfg.w.name, "--seed", fmt.Sprint(cfg.seed))
	if err != nil {
		return pr, fmt.Errorf("set-up probe: %w", err)
	}
	if err := json.Unmarshal(lastLine(out), &pr); err != nil {
		return pr, fmt.Errorf("set-up probe output: %w", err)
	}
	return pr, nil
}

// runSelf runs this program again with args and returns its standard
// output; it returns once the child has exited.
func runSelf(stderr io.Writer, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return out, fmt.Errorf("%v exited with code %d", args, exitErr.ExitCode())
	}
	return out, err
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// quantile is the q-quantile of sorted xs by linear interpolation between
// order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
