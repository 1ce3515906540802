package tsdb

import (
	"context"
	"runtime/metrics"
	"time"

	"soral/internal/obs"
	"soral/internal/obs/hist"
)

// Sampler periodically copies the registry into the store: every counter and
// gauge verbatim, every latency histogram as derived `<name>.p50`,
// `<name>.p99`, and `<name>.count` series. One Tick is one column of the
// store; the watch engine hangs off AfterSample so rules always evaluate
// against a freshly written column.
//
// All sampling happens on the goroutine calling Tick (or Run): the
// sampler's series caches are not shared. DB and Reg must not change once
// the sampler has ticked.
type Sampler struct {
	DB  *DB
	Reg *obs.Registry
	// Runtime additionally collects the Go runtime gauges (obs.CollectRuntime)
	// into the registry before each sample, so they appear in /metrics and
	// the store from the same read.
	Runtime bool
	// AfterSample, when set, runs after each tick's column is fully written
	// (the watch engine's evaluation hook).
	AfterSample func(tns int64)

	// counters, gauges and hists hold the store's series of the registry's
	// metrics by their position in the Each* walks (hists the three derived
	// series of each latency histogram), so a steady-state tick builds no
	// names and looks nothing up.
	counters, gauges []*Series
	hists            [][3]*Series
	// rtSamples is obs.CollectRuntime's sample buffer, reused every tick.
	rtSamples []metrics.Sample
}

// Tick takes one sample at the given time. Deterministic given the registry
// state and now — tests and the bench harness drive it with a manual clock.
// Once every series it writes exists, a tick allocates nothing
// (TestSamplerTickZeroAlloc).
func (s *Sampler) Tick(now time.Time) {
	if s.DB == nil {
		return
	}
	tns := now.UnixNano()
	if s.Reg != nil {
		if s.Runtime {
			s.rtSamples = obs.CollectRuntime(s.Reg, s.rtSamples)
		}
		s.sampleRegistry(tns)
	}
	if s.AfterSample != nil {
		s.AfterSample(tns)
	}
}

// sampleRegistry writes every registry metric's point for tns. The Each*
// walks are the registry's sampling path: no Snapshot maps, and they visit
// each kind in creation order, so the i-th call of one walk is the same
// metric every tick. The sampler binds its series by that position and
// looks a name up only when it first sees it, and it takes the store's
// points lock once for all the writes.
func (s *Sampler) sampleRegistry(tns int64) {
	s.DB.points.Lock()
	defer s.DB.points.Unlock()
	i := 0
	s.Reg.EachCounter(func(name string, v int64) {
		if i == len(s.counters) {
			s.counters = append(s.counters, s.DB.Series(name))
		}
		s.counters[i].record(tns, float64(v))
		i++
	})
	i = 0
	s.Reg.EachGauge(func(name string, v float64) {
		if i == len(s.gauges) {
			s.gauges = append(s.gauges, s.DB.Series(name))
		}
		s.gauges[i].record(tns, v)
		i++
	})
	i = 0
	s.Reg.EachLatency(func(name string, h *hist.Hist) {
		if i == len(s.hists) {
			s.hists = append(s.hists, [3]*Series{s.DB.Series(name + ".p50"), s.DB.Series(name + ".p99"), s.DB.Series(name + ".count")})
		}
		hs := &s.hists[i]
		hs[0].record(tns, h.Quantile(0.50))
		hs[1].record(tns, h.Quantile(0.99))
		hs[2].record(tns, float64(h.Count()))
		i++
	})
}

// Run ticks every interval (the DB's resolution when every <= 0) until ctx
// is canceled. It takes one immediate sample first so a short-lived process
// still leaves a column behind.
func (s *Sampler) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = s.DB.Resolution()
	}
	s.Tick(time.Now())
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			s.Tick(now)
		}
	}
}
