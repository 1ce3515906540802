package tsdb

import (
	"context"
	"time"

	"soral/internal/obs"
	"soral/internal/obs/hist"
)

// SourceGauge is an external scalar sampled alongside the registry: sources
// that maintain their own state (a supervisor's restart budget) and have no
// reason to push into the registry on their own cadence.
type SourceGauge struct {
	Name string
	Read func() float64
}

// Sampler periodically copies the registry into the store: every counter and
// gauge verbatim, every latency histogram as derived `<name>.p50`,
// `<name>.p99`, and `<name>.count` series. One Tick is one column of the
// store; the watch engine hangs off AfterSample so rules always evaluate
// against a freshly written column.
//
// All sampling happens on the goroutine calling Tick (or Run) — the Series
// write side is single-writer by construction.
type Sampler struct {
	DB  *DB
	Reg *obs.Registry
	// Runtime additionally collects the Go runtime gauges (obs.CollectRuntime)
	// into the registry before each sample, so they appear in /metrics and
	// the store from the same read.
	Runtime bool
	// Gauges are external scalars sampled each tick.
	Gauges []SourceGauge
	// AfterSample, when set, runs after each tick's column is fully written
	// (the watch engine's evaluation hook).
	AfterSample func(tns int64)

	// series caches the store's series by registry name, and hists each
	// latency histogram's three derived series, so a steady-state tick
	// builds no names and takes no store lock.
	series map[string]*Series
	hists  map[string]*[3]*Series
}

// seriesFor returns the cached store series for a registry name.
func (s *Sampler) seriesFor(name string) *Series {
	sr := s.series[name]
	if sr == nil {
		if s.series == nil {
			s.series = make(map[string]*Series)
		}
		sr = s.DB.Series(name)
		s.series[name] = sr
	}
	return sr
}

// Tick takes one sample at the given time. Deterministic given the registry
// state and now — tests and the bench harness drive it with a manual clock.
func (s *Sampler) Tick(now time.Time) {
	if s.DB == nil {
		return
	}
	tns := now.UnixNano()
	if s.Reg != nil {
		if s.Runtime {
			obs.CollectRuntime(s.Reg)
		}
		// The Each* walks are the registry's sampling path: no Snapshot maps,
		// so a tick stays microseconds even against a registry a full run
		// has populated.
		s.Reg.EachCounter(func(name string, v int64) {
			s.seriesFor(name).Record(tns, float64(v))
		})
		s.Reg.EachGauge(func(name string, v float64) {
			s.seriesFor(name).Record(tns, v)
		})
		s.Reg.EachLatency(func(name string, h *hist.Hist) {
			hs := s.hists[name]
			if hs == nil {
				if s.hists == nil {
					s.hists = make(map[string]*[3]*Series)
				}
				hs = &[3]*Series{s.DB.Series(name + ".p50"), s.DB.Series(name + ".p99"), s.DB.Series(name + ".count")}
				s.hists[name] = hs
			}
			hs[0].Record(tns, h.Quantile(0.50))
			hs[1].Record(tns, h.Quantile(0.99))
			hs[2].Record(tns, float64(h.Count()))
		})
	}
	for _, g := range s.Gauges {
		if g.Read != nil {
			s.DB.Series(g.Name).Record(tns, g.Read())
		}
	}
	if s.AfterSample != nil {
		s.AfterSample(tns)
	}
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
