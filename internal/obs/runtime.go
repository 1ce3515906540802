package obs

import (
	"math"
	"runtime/metrics"
)

// Go runtime metric names: process-level collectors sampled alongside the
// solver's own telemetry so drift in the host process (goroutine leaks, heap
// growth, GC stalls) is visible on the same timeline as solver drift.
const (
	// MetricGoroutines gauges the live goroutine count.
	MetricGoroutines = "runtime.goroutines"
	// MetricHeapBytes gauges the live heap (bytes currently allocated).
	MetricHeapBytes = "runtime.heap_alloc_bytes"
	// MetricGCPauseP99 gauges the p99 stop-the-world pause (seconds) over
	// the process lifetime's pause distribution.
	MetricGCPauseP99 = "runtime.gc_pause_p99_seconds"
	// MetricGCCycles counts completed GC cycles since process start.
	MetricGCCycles = "runtime.gc_cycles"
)

// runtimeSamples are the runtime/metrics series backing the collectors. The
// batch is read in one call; runtime/metrics reads are cheap (no
// stop-the-world, unlike ReadMemStats), which is what lets the collectors
// run on every watchdog tick without denting the slot latency budget.
var runtimeSamples = []metrics.Sample{
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/pauses:seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// CollectRuntime samples the Go runtime into reg: goroutine count, live heap
// bytes, GC pause p99, and the GC cycle counter. soral -watch calls it on
// every watchdog tick, just before the alert rules evaluate, so /metrics
// carries the gauges. buf is the sample buffer CollectRuntime returned
// on the previous call, or nil; it is reused together with the runtime's
// pause histogram inside it, so a call after the first allocates nothing
// (the watch experiment re-checks this every run: collect_allocs).
func CollectRuntime(reg *Registry, buf []metrics.Sample) []metrics.Sample {
	if reg == nil {
		return buf
	}
	if len(buf) != len(runtimeSamples) {
		buf = make([]metrics.Sample, len(runtimeSamples))
		copy(buf, runtimeSamples)
	}
	metrics.Read(buf)
	reg.SetGauge(MetricGoroutines, float64(buf[0].Value.Uint64()))
	reg.SetGauge(MetricHeapBytes, float64(buf[1].Value.Uint64()))
	reg.SetGauge(MetricGCPauseP99, histQuantile(buf[2].Value.Float64Histogram(), 0.99))
	reg.SetCounter(MetricGCCycles, int64(buf[3].Value.Uint64()))
	return buf
}

// histQuantile returns the q-quantile upper bucket edge of a runtime/metrics
// histogram (0 when empty). The runtime's pause histogram has log-spaced
// buckets, so the returned value is edge-quantized the same way the repo's
// own latency histograms are.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			// Buckets[i+1] is the bucket's upper edge; the last bucket's can
			// be +Inf, in which case its lower edge is the best finite bound.
			upper := h.Buckets[i+1]
			if math.IsInf(upper, 1) {
				return h.Buckets[i]
			}
			return upper
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
