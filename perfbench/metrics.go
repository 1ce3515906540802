package main

import (
	"soral/internal/core"
	"soral/internal/linalg"
	"soral/internal/model"
	"soral/internal/obs"
)

// endToEndMetrics are what a user of the online algorithm sees, measured
// with tracing off and the journal on. The slot figures are medians over
// the run's rounds; setups and rss hold one set-up time (seconds) and one
// peak RSS (bytes) per process, and their medians are reported. res counts
// the slots of every process, probes included.
func endToEndMetrics(p *pass, r *runner, res result, setups, rss []float64) map[string]metric {
	return map[string]metric{
		"slots_per_s":   {p.median(func(rd round) float64 { return rd.slotsPerS }), "1/s"},
		"slot_p50_ms":   {p.median(func(rd round) float64 { return rd.p50ms }), "ms"},
		"slot_p90_ms":   {p.median(func(rd round) float64 { return rd.p90ms }), "ms"},
		"setup_s":       {median(setups), "s"},
		"peak_rss_mb":   {median(rss) / (1 << 20), "MiB"},
		"cost_ratio":    {r.costRatio(), "ratio"},
		"ok_slot_ratio": {float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"},
	}
}

// layerMetrics are the per-layer figures of a traced run. plain holds the
// run's untraced rounds, which give the tracing overhead and the Go runtime
// deltas (tracing allocates on its own, and would swamp the program's
// allocations on the cache path); traced holds the traced rounds, which
// carry the registry and journal-span figures; st is the process's first
// set-up.
func layerMetrics(r *runner, plain, traced *pass, reg *obs.Registry, tr *tracer, st setupTimes) map[string]metric {
	n := float64(traced.timedSlots)
	per := func(v float64) float64 { return v / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	lc := traced.layers
	stepS := traced.stepTotal.Seconds()
	journalS := float64(tr.writeNS+tr.fsyncNS) / 1e9

	// A factorization of the n×n Newton system costs n³/3 flops.
	var gflops float64
	if lc.factorS > 0 {
		vars := float64(p2Size(r))
		gflops = vars * vars * vars / 3 * float64(lc.factorN) / lc.factorS / 1e9
	}
	// Over every factorization of the traced pass, warm-up slots included.
	factP50 := reg.LatencyHist("latency.convex.factorize.seconds").Quantile(0.5)

	pn := float64(plain.timedSlots)
	rt := plain.runtime
	rate := func(rd round) float64 { return rd.slotsPerS }
	plainRate, tracedRate := plain.median(rate), traced.median(rate)
	return map[string]metric{
		"core.step_us":                       {per(stepS) * 1e6, "us"},
		"core.solve_ms":                      {per(lc.solveS) * 1e3, "ms"},
		"core.assemble_us":                   {per(lc.assembleS) * 1e6, "us"},
		"core.commit_us":                     {per(lc.commitS) * 1e6, "us"},
		"core.unattributed_us":               {per(stepS-lc.solveS-lc.commitS) * 1e6, "us"},
		"core.cache_hit_ratio":               {per(float64(lc.cacheHits)), "ratio"},
		"core.skeleton_hit_ratio":            {ratio(lc.skeletonHits, lc.assembleN), "ratio"},
		"core.warm_hit_ratio":                {ratio(lc.warmHits, lc.warmHits+lc.warmMisses+lc.warmFallbacks), "ratio"},
		"convex.newton_iters_per_slot":       {per(float64(lc.newton)), "count"},
		"convex.other_ms":                    {per(lc.solveS-lc.factorS) * 1e3, "ms"},
		"linalg.factorizations_per_slot":     {per(float64(lc.factorN)), "count"},
		"linalg.factorize_ms":                {per(lc.factorS) * 1e3, "ms"},
		"linalg.factorize_p50_us":            {factP50 * 1e6, "us"},
		"linalg.gflops_computed":             {gflops, "GFLOP/s"},
		"linalg.workers":                     {float64(linalg.ResolveWorkers(r.w.options().Solver.Workers)), "count"},
		"resilience.recovered_ratio":         {per(float64(traced.recovered)), "ratio"},
		"resilience.rung_attempts_per_slot":  {per(float64(lc.rungs)), "count"},
		"journal.bytes_per_slot":             {per(float64(tr.writeBytes)), "bytes"},
		"journal.write_us_per_slot":          {per(float64(tr.writeNS)) / 1e3, "us"},
		"journal.fsyncs_per_slot":            {per(float64(tr.fsyncs)), "count"},
		"journal.fsync_us_per_slot":          {per(float64(tr.fsyncNS)) / 1e3, "us"},
		"attr.commit_other_us":               {per(lc.commitS-journalS) * 1e6, "us"},
		"obs.trace_overhead_pct":             {(plainRate - tracedRate) / plainRate * 100, "%"},
		"runtime.allocs_per_slot":            {float64(rt.allocs) / pn, "count"},
		"runtime.alloc_bytes_per_slot":       {float64(rt.allocBytes) / pn, "bytes"},
		"runtime.gc_cycles_per_kslot":        {float64(rt.gcCycles) / pn * 1000, "count"},
		"runtime.heap_growth_bytes_per_slot": {float64(rt.heapGrowth) / pn, "bytes"},
		"setup.new_online_ms":                {st.newOnline.Seconds() * 1e3, "ms"},
		"setup.warmup_ms":                    {st.warmup.Seconds() * 1e3, "ms"},
	}
}

// p2Size is the number of variables of the workload's P2 subproblem, the
// order of every Newton system the solver factorizes.
func p2Size(r *runner) int {
	net, in := r.scens[0].Net, r.scens[0].In
	p2, err := core.BuildP2(net, in, 0, model.NewZeroDecision(net), r.w.options().Params)
	if err != nil {
		return 0
	}
	return p2.NumVars
}
