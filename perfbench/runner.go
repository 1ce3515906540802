package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"soral/internal/core"
	"soral/internal/eval"
	"soral/internal/linalg"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/journal"
)

// minRounds is the fewest rounds a run measures, so that the median over
// rounds can set one disturbed round aside.
const minRounds = 3

// runner drives a workload's instances through whole episodes in a closed
// loop: the next slot goes in as soon as Online.Step has returned, that is,
// once the previous decision is journaled and fsynced.
type runner struct {
	w     *workload
	seed  int64
	scens []*eval.Scenario
	jf    *journalFile

	// refs hold the checks of each instance's first episode in this
	// process; every later episode must reproduce its decision digest.
	refs []episodeCheck
}

func newRunner(w *workload, seed int64) (*runner, error) {
	if w.instances < 1 {
		return nil, fmt.Errorf("%s: no instances", w.name)
	}
	r := &runner{w: w, seed: seed, refs: make([]episodeCheck, w.instances)}
	for k := 0; k < w.instances; k++ {
		scen, err := w.instance(seed, k)
		if err != nil {
			return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
		}
		r.scens = append(r.scens, scen)
	}
	return r, nil
}

func (r *runner) close() error {
	if r.jf == nil {
		return nil
	}
	return r.jf.close()
}

// digest fingerprints the decisions of every instance, in order.
func (r *runner) digest() string {
	h := sha256.New()
	for _, ref := range r.refs {
		h.Write([]byte(ref.digest))
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// costRatio is the instances' whole-horizon cost over the sum of their
// per-slot operating lower bounds.
func (r *runner) costRatio() float64 {
	var cost, lb float64
	for _, ref := range r.refs {
		cost += ref.cost
		lb += ref.lowerBound
	}
	return cost / lb
}

// round holds the end-to-end figures of one round: one episode per
// instance.
type round struct {
	slotsPerS, p50ms, p90ms float64
}

// pass accumulates a series of rounds run the same way.
type pass struct {
	rounds     []round
	timedSlots int
	wall       time.Duration // timed windows, summed over rounds
	stepTotal  time.Duration // timed Online.Step calls, summed
	attempted  int           // every slot decided, warm-up included
	failed     int           // slots that failed a correctness check
	problems   []string

	// Filled when the pass measures layers (a registry is attached) or
	// the Go runtime.
	layers    layerCounts
	runtime   runtimeDeltas
	recovered int

	peakRSS int64 // max RSS after the first timed window, in bytes

	// The round in progress: its timed Online.Step times and windows.
	roundDurs []time.Duration
	roundWall time.Duration
}

func (p *pass) problem(format string, args ...any) {
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// median returns the median over rounds of one figure.
func (p *pass) median(f func(round) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, rd := range p.rounds {
		xs[i] = f(rd)
	}
	return median(xs)
}

// endRound closes the round in progress.
func (p *pass) endRound() {
	durs, wall := p.roundDurs, p.roundWall
	p.roundDurs, p.roundWall = nil, 0
	ms := make([]float64, len(durs))
	for i, d := range durs {
		p.stepTotal += d
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	p.rounds = append(p.rounds, round{
		slotsPerS: float64(len(durs)) / wall.Seconds(),
		p50ms:     quantile(ms, 0.5),
		p90ms:     quantile(ms, 0.9),
	})
	p.timedSlots += len(durs)
	p.wall += wall
}

// setupTimes splits an episode's set-up: NewOnline alone, the warm-up
// slots alone, and the whole of journal open, Begin, NewOnline and the
// warm-up slots.
type setupTimes struct {
	newOnline, warmup, total time.Duration
}

// episodeOpts say how one episode is observed.
type episodeOpts struct {
	reg       *obs.Registry // attach an obs.Scope over it (tracing on)
	tr        *tracer       // wrap the journal and keep spans
	measureRT bool          // take runtime/metrics deltas across the window
}

// episode decides slots 0..horizon-1 of instance k on a fresh Online,
// timing every slot after the warm-up, then checks what the episode left
// behind. Only an error that stops the loop itself is returned; failed
// checks are counted in p.
func (r *runner) episode(p *pass, eo episodeOpts, k int) (setupTimes, error) {
	w, net, in := r.w, r.scens[k].Net, r.scens[k].In
	opts := w.options()
	if eo.reg != nil {
		opts.Obs = obs.NewScope(eo.reg, nil)
	}
	decs := make([]*model.Decision, 0, w.horizon)
	durs := make([]time.Duration, 0, w.horizon-w.warmup)
	var st setupTimes
	runtime.GC()

	start := time.Now()
	if r.jf == nil {
		jf, err := openJournalFile()
		if err != nil {
			return st, err
		}
		r.jf = jf
	} else if err := r.jf.reset(); err != nil {
		return st, fmt.Errorf("resetting journal: %w", err)
	}
	jw := r.jf.writer(eo.tr)
	jw.Begin(journal.Header{Algorithm: "online", Seed: r.seed,
		GoMaxProcs: runtime.GOMAXPROCS(0), Workers: linalg.ResolveWorkers(opts.Solver.Workers)})
	opts.Journal = jw
	noStart := time.Now()
	o, err := core.NewOnline(net, in, opts)
	st.newOnline = time.Since(noStart)
	if err != nil {
		return st, err
	}
	warmStart := time.Now()
	for t := 0; t < w.warmup; t++ {
		dec, err := o.Step()
		if err != nil {
			return st, fmt.Errorf("slot %d: %w", t, err)
		}
		decs = append(decs, dec)
	}
	st.warmup = time.Since(warmStart)
	st.total = time.Since(start)

	runtime.GC()
	var rt0 runtimeSample
	if eo.measureRT {
		rt0 = sampleRuntime()
	}
	var lc0 layerCounts
	if eo.reg != nil {
		lc0 = snapLayers(eo.reg)
	}
	if eo.tr != nil {
		eo.tr.active = true
	}
	winStart := time.Now()
	for t := w.warmup; t < w.horizon; t++ {
		if eo.tr != nil {
			eo.tr.slot = t
		}
		s := time.Now()
		dec, err := o.Step()
		e := time.Now()
		if err != nil {
			return st, fmt.Errorf("slot %d: %w", t, err)
		}
		durs = append(durs, e.Sub(s))
		decs = append(decs, dec)
		if eo.tr != nil {
			eo.tr.slotSpan(t, int64(s.Sub(eo.tr.origin)), int64(e.Sub(eo.tr.origin)))
		}
	}
	p.roundWall += time.Since(winStart)
	p.roundDurs = append(p.roundDurs, durs...)
	if len(p.rounds) == 0 && k == 0 {
		// The high-water mark before any check runs: what the program
		// needed for set-up and one whole episode.
		p.peakRSS = maxRSSBytes()
	}
	if eo.tr != nil {
		eo.tr.active = false
	}
	if eo.reg != nil {
		p.layers.add(snapLayers(eo.reg), lc0)
	}
	var rt1 runtimeSample
	if eo.measureRT {
		rt1 = sampleRuntime()
	}
	p.attempted += w.horizon

	slots := o.Report().Slots
	for _, sr := range slots[w.warmup:] {
		if sr.Status == core.SlotRecovered {
			p.recovered++
		}
	}
	// A failure of the whole episode fails every slot of it, once.
	jw.End(journal.Footer{})
	chk := checkEpisode(net, in, decs, slots, r.jf.path())
	failed := chk.failed
	for _, msg := range chk.problems {
		p.problem("round %d: instance %d: %s", len(p.rounds)+1, k, msg)
	}
	if err := jw.Err(); err != nil {
		failed = w.horizon
		p.problem("round %d: instance %d: journal writer: %v", len(p.rounds)+1, k, err)
	}
	if ref := &r.refs[k]; ref.digest == "" {
		*ref = chk
	} else if chk.digest != ref.digest {
		failed = w.horizon
		p.problem("round %d: instance %d decision digest %s, first round %s", len(p.rounds)+1, k, chk.digest, ref.digest)
	}
	p.failed += failed
	if eo.measureRT {
		runtime.GC()
		p.runtime.add(rt0, rt1, sampleRuntime())
	}
	runtime.KeepAlive(o)
	return st, nil
}

// round runs one episode per instance and returns the set-up times of the
// first.
func (r *runner) round(p *pass, eo episodeOpts) (setupTimes, error) {
	var first setupTimes
	for k := range r.scens {
		st, err := r.episode(p, eo, k)
		if err != nil {
			return first, fmt.Errorf("%s: round %d, instance %d: %w", r.w.name, len(p.rounds)+1, k, err)
		}
		if k == 0 {
			first = st
		}
	}
	p.endRound()
	return first, nil
}

// run repeats rounds until at least minRounds have run and the timed
// windows add up to at least d. The set-up times of the run's first
// episode are returned.
func (r *runner) run(d time.Duration, eo episodeOpts) (*pass, setupTimes, error) {
	p := &pass{}
	var first setupTimes
	for len(p.rounds) < minRounds || p.wall < d {
		st, err := r.round(p, eo)
		if err != nil {
			return p, first, err
		}
		if len(p.rounds) == 1 {
			first = st
		}
	}
	return p, first, nil
}

// probe runs one round.
func (r *runner) probe() (*pass, setupTimes, error) {
	p := &pass{}
	st, err := r.round(p, episodeOpts{})
	return p, st, err
}

// layerCounts are the registry values the traced pass differences across
// each timed window: latency-histogram sums (seconds) and counts, and
// counters the program records.
type layerCounts struct {
	solveS, assembleS, commitS, factorS float64
	factorN, assembleN                  int64
	newton, rungs                       int64
	warmHits, warmMisses, warmFallbacks int64
	cacheHits, skeletonHits             int64
}

func snapLayers(reg *obs.Registry) layerCounts {
	h := func(name string) (float64, int64) {
		lh := reg.LatencyHist("latency." + name + ".seconds")
		return lh.Sum(), lh.Count()
	}
	var c layerCounts
	c.solveS, _ = h("core.solve")
	c.assembleS, c.assembleN = h("core.assemble")
	c.commitS, _ = h("core.commit")
	c.factorS, c.factorN = h("convex.factorize")
	c.newton = reg.Counter("convex.newton.iterations")
	c.rungs = reg.Counter("ladder.rungs")
	c.warmHits = reg.Counter(obs.MetricWarmHits)
	c.warmMisses = reg.Counter(obs.MetricWarmMisses)
	c.warmFallbacks = reg.Counter(obs.MetricWarmFallbacks)
	c.cacheHits = reg.Counter(obs.MetricWarmCacheHits)
	c.skeletonHits = reg.Counter(obs.MetricWarmSkeletonHits)
	return c
}

// add accumulates the difference after − before.
func (c *layerCounts) add(after, before layerCounts) {
	c.solveS += after.solveS - before.solveS
	c.assembleS += after.assembleS - before.assembleS
	c.commitS += after.commitS - before.commitS
	c.factorS += after.factorS - before.factorS
	c.factorN += after.factorN - before.factorN
	c.assembleN += after.assembleN - before.assembleN
	c.newton += after.newton - before.newton
	c.rungs += after.rungs - before.rungs
	c.warmHits += after.warmHits - before.warmHits
	c.warmMisses += after.warmMisses - before.warmMisses
	c.warmFallbacks += after.warmFallbacks - before.warmFallbacks
	c.cacheHits += after.cacheHits - before.cacheHits
	c.skeletonHits += after.skeletonHits - before.skeletonHits
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

type runtimeSample [4]uint64

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// runtimeDeltas sum, over timed windows, the objects and bytes allocated
// and the GC cycles run, and the growth of the live heap from the start of
// a window to just after it (both read after a forced GC, so only what the
// program still holds counts).
type runtimeDeltas struct {
	allocs, allocBytes, gcCycles uint64
	heapGrowth                   int64
}

func (d *runtimeDeltas) add(start, end, afterGC runtimeSample) {
	d.allocs += end[0] - start[0]
	d.allocBytes += end[1] - start[1]
	d.gcCycles += end[2] - start[2]
	d.heapGrowth += int64(afterGC[3]) - int64(start[3])
}

// maxRSSBytes is the process's peak resident set size, VmHWM. Unlike
// getrusage's maxrss, it does not inherit the parent's peak when a child
// process starts.
func maxRSSBytes() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}
