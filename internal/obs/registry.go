package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"soral/internal/obs/hist"
)

// Registry is a concurrency-safe metrics registry. Counters, gauges and
// latency histograms are lock-free after first creation (atomic loads/stores
// behind an RWMutex-protected name table).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Uint64 // float64 bits
	lats     map[string]*hist.Hist
	spans    map[string]*hist.Hist // span name -> its lats entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*atomic.Int64{},
		gauges:   map[string]*atomic.Uint64{},
		lats:     map[string]*hist.Hist{},
		spans:    map[string]*hist.Hist{},
	}
}

func (r *Registry) counter(name string) *atomic.Int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(atomic.Int64)
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter by delta (creating it at zero first).
func (r *Registry) Add(name string, delta int64) { r.counter(name).Add(delta) }

// SetCounter stores an absolute value into the named counter: for sources
// that maintain their own monotone count (a feed's drop counter) and are
// mirrored into the registry at scrape time.
func (r *Registry) SetCounter(name string, v int64) { r.counter(name).Store(v) }

// Counter returns the current value of the named counter (0 if never used).
func (r *Registry) Counter(name string) int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

func (r *Registry) gauge(name string) *atomic.Uint64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(atomic.Uint64)
		r.gauges[name] = g
	}
	return g
}

// SetGauge records the latest value of the named gauge.
func (r *Registry) SetGauge(name string, v float64) {
	r.gauge(name).Store(math.Float64bits(v))
}

// Gauge returns the last value set on the named gauge (0 if never set).
func (r *Registry) Gauge(name string) float64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.Load())
}

// LatencyHist returns (creating if needed) the named log-bucketed latency
// histogram. Hot paths may cache the returned handle; its Record method is
// lock-free and allocation-free.
func (r *Registry) LatencyHist(name string) *hist.Hist {
	r.mu.RLock()
	h := r.lats[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.lats[name]; h == nil {
		h = hist.New()
		r.lats[name] = h
	}
	return h
}

// spanHist returns the "latency.<span>.seconds" histogram. It is indexed by
// the bare span name, so Span.End builds no string: only the histogram's
// creation allocates.
func (r *Registry) spanHist(span string) *hist.Hist {
	r.mu.RLock()
	h := r.spans[span]
	r.mu.RUnlock()
	if h == nil {
		h = r.LatencyHist("latency." + span + ".seconds")
		r.mu.Lock()
		r.spans[span] = h
		r.mu.Unlock()
	}
	return h
}

// RecordLatency records one observation (seconds) into the named
// log-bucketed latency histogram. Its quantiles cover every observation of
// the run and resolve tail quantiles (p999) to bucket precision.
func (r *Registry) RecordLatency(name string, seconds float64) {
	r.LatencyHist(name).Record(seconds)
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	// Latencies summarizes the log-bucketed latency histograms: exact
	// count/sum/min/max, bucket-precision p50/p99/p999, and the non-empty
	// cumulative buckets for exposition.
	Latencies map[string]hist.Stats
}

// Snapshot copies the registry's current state. It is safe to call
// concurrently with writers.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make(map[string]*atomic.Int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*atomic.Uint64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	lats := make(map[string]*hist.Hist, len(r.lats))
	for k, v := range r.lats {
		lats[k] = v
	}
	r.mu.RUnlock()

	snap := Snapshot{
		Counters:  make(map[string]int64, len(counters)),
		Gauges:    make(map[string]float64, len(gauges)),
		Latencies: make(map[string]hist.Stats, len(lats)),
	}
	for k, v := range counters {
		snap.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		snap.Gauges[k] = math.Float64frombits(v.Load())
	}
	for k, v := range lats {
		snap.Latencies[k] = v.Snapshot()
	}
	return snap
}

// EachCounter calls fn for every counter under the registry's read lock.
// With EachGauge and EachLatency it forms the sampling path: a tsdb sampler
// tick reads every metric without building the Snapshot maps, so sampling
// cadence is not bounded by scrape cost. fn must not call back into the registry.
func (r *Registry) EachCounter(fn func(name string, v int64)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, v := range r.counters {
		fn(k, v.Load())
	}
}

// EachGauge calls fn for every gauge under the registry's read lock.
func (r *Registry) EachGauge(fn func(name string, v float64)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, v := range r.gauges {
		fn(k, math.Float64frombits(v.Load()))
	}
}

// EachLatency calls fn for every log-bucketed latency histogram under the
// registry's read lock. The handle's readers (Count, Quantile,
// CountAtOrBelow) are lock-free, so fn can summarize in place.
func (r *Registry) EachLatency(fn func(name string, h *hist.Hist)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, v := range r.lats {
		fn(k, v)
	}
}

// WriteText dumps the registry as sorted, expvar-style text: one metric per
// line, grouped by kind, stable across runs with equal values.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", name, snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Latencies) {
		l := snap.Latencies[name]
		if _, err := fmt.Fprintf(w, "latency %s count=%d sum=%g min=%g max=%g p50=%g p99=%g p999=%g\n",
			name, l.Count, l.Sum, l.Min, l.Max, l.P50, l.P99, l.P999); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
