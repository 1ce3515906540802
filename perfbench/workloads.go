package main

import (
	"fmt"
	"sort"

	"soral/internal/core"
	"soral/internal/eval"
	trace "soral/internal/workload"
)

// workload is one input set the benchmark drives through core.Online.Step.
// A run repeats rounds; a round is one episode per instance, and an
// episode is a fresh Online deciding slots 0..horizon-1 of one instance.
// Every round is the same work, so a round's figures do not depend on how
// fast the program is, and the median over rounds sets aside rounds the
// machine slowed down. The journal and the run report stay bounded by the
// horizon. README.md records why each workload exists.
type workload struct {
	name string
	// spec is the scenario minus Seed, T and CustomTrace.
	spec eval.ScenarioSpec
	// instances is the number of instances a round decides, each with its
	// own prices, so the figures average over several price draws.
	instances int
	// demand is the demand trace over a horizon. Every seed gets the same
	// recorded-like trace, or that trace started a few days in, so runs with
	// different seeds weigh bursts and calm stretches alike. The seed also
	// draws the operating prices of the network's real-time markets. Only
	// the timed slots take their inputs from the seed; see instance.
	demand func(hours int, seed int64) []float64
	// horizon is the episode length in slots.
	horizon int
	// warmup is the number of leading slots of an episode that belong to
	// set-up rather than to the timed window. A few milliseconds of set-up
	// in a fresh process varied by half; tens of milliseconds by under a
	// tenth.
	warmup int
	// warmStart turns on core.Options.WarmStart.
	warmStart bool
}

// The demand traces' own seeds. In worldCupSeed's trace ~17% of slots take
// the slow mode, well above the 10% at which slot_p90_ms would sit on the
// edge between the fast and the slow mode.
const (
	wikipediaSeed = 1
	worldCupSeed  = 8
)

var workloads = []*workload{
	{
		// WarmStart off, the default users get: every slot is a dense cold
		// Newton solve on the 24-pair network.
		name:      "cold-dense",
		spec:      eval.ScenarioSpec{NumTier2: 4, NumTier1: 12, K: 2, ReconfWeight: 10},
		instances: 4,
		demand:    func(h int, _ int64) []float64 { return trace.Wikipedia(h, wikipediaSeed) },
		horizon:   30,
		warmup:    4,
	},
	{
		// Incremental re-solve on the paper-sized network; bursts make a
		// share of slots need many more Newton iterations. A round's timed
		// window is the whole 600-hour World Cup trace, after a day of
		// warm-up, so a run tiles it. This network has no real-time market,
		// so the seed picks the day the timed window starts on.
		name:      "warm-bursty",
		spec:      eval.ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, ReconfWeight: 10},
		instances: 1,
		demand: func(h int, seed int64) []float64 {
			return tile(rotate(trace.WorldCup(trace.WorldCupHours, worldCupSeed), seed), h)
		},
		horizon:   24 + trace.WorldCupHours,
		warmup:    24,
		warmStart: true,
	},
	{
		// Constant demand and frozen prices: after the warm-up solves every
		// slot is a decision-cache hit, so slot time is the commit path.
		name:      "steady-cache",
		spec:      eval.ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, ReconfWeight: 10, ConstPrice: true},
		instances: 1,
		demand:    func(h int, _ int64) []float64 { return tile([]float64{1}, h) },
		horizon:   8192,
		warmup:    8,
		warmStart: true,
	},
}

// rotate starts the trace a whole number of days in, drawn from the seed,
// wrapping round; whole days keep the time of day the episode starts at.
func rotate(xs []float64, seed int64) []float64 {
	days := uint64(len(xs)+23) / 24
	k := int(uint64(seed) % days * 24 % uint64(len(xs)))
	return append(append([]float64(nil), xs[k:]...), xs[:k]...)
}

// tile repeats xs to length n.
func tile(xs []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = xs[i%len(xs)]
	}
	return out
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setupSeed draws the inputs set-up works on, the same in every run: the
// network, whose reconfiguration prices follow its draw's operating
// prices, and the warm-up slots' prices and demand. Set-up then does the
// same work whatever the seed, so setup_s does not move with it.
const setupSeed = 0

// instance generates the inputs of instance k from the run's seed: the
// same seed always yields the same inputs. The seed draws the prices and
// demand of the timed slots; the network and the warm-up slots come from
// setupSeed.
func (w *workload) instance(seed int64, k int) (*eval.Scenario, error) {
	scen, err := w.build(seed, k)
	if err != nil {
		return nil, err
	}
	fixed, err := w.build(setupSeed, k)
	if err != nil {
		return nil, err
	}
	scen.Net = fixed.Net
	copy(scen.In.PriceT2[:w.warmup], fixed.In.PriceT2)
	copy(scen.In.Workload[:w.warmup], fixed.In.Workload)
	return scen, nil
}

// build draws instance k of seed whole; two seeds share no draw.
func (w *workload) build(seed int64, k int) (*eval.Scenario, error) {
	spec := w.spec
	spec.Seed = seed*int64(w.instances) + int64(k) + 1
	spec.T = w.horizon
	spec.CustomTrace = w.demand(w.horizon, seed)
	return eval.Build(spec)
}

func (w *workload) options() core.Options {
	opts := core.DefaultOptions()
	opts.WarmStart = w.warmStart
	return opts
}
