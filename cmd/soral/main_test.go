package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"soral/internal/obs"
	"soral/internal/obs/watch"
)

// runtimeProbe is a rule that checks, at every tick, that the runtime gauges
// reached the registry before the rules ran, and then zeroes them, so the
// next tick must collect them again. It closes reached at tick want.
type runtimeProbe struct {
	reg           *obs.Registry
	want          int64
	reached       chan struct{}
	ticks, missed atomic.Int64
}

func (p *runtimeProbe) Name() string     { return "runtime-probe" }
func (p *runtimeProbe) Severity() string { return watch.SeverityWarn }
func (p *runtimeProbe) Reason() string   { return "" }
func (p *runtimeProbe) Eval(int64) watch.Verdict {
	if p.reg.Gauge(obs.MetricGoroutines) < 1 || p.reg.Gauge(obs.MetricHeapBytes) <= 0 {
		p.missed.Add(1)
	}
	p.reg.SetGauge(obs.MetricGoroutines, 0)
	p.reg.SetGauge(obs.MetricHeapBytes, 0)
	if p.ticks.Add(1) == p.want {
		close(p.reached)
	}
	return watch.Verdict{}
}

// TestRunWatch pins the watchdog ticker: the first tick is immediate, every
// tick collects the runtime gauges into the registry before the rules
// evaluate, and the goroutine returns within 1 s of its context being
// canceled.
func TestRunWatch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		every     time.Duration
		wantTicks int64
	}{
		{"first-tick-immediate", time.Hour, 1},
		{"every-tick", time.Millisecond, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			probe := &runtimeProbe{reg: reg, want: tc.wantTicks, reached: make(chan struct{})}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				runWatch(ctx, reg, watch.New().AddRule(probe), tc.every)
			}()
			select {
			case <-probe.reached:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d ticks after 5 s, want %d", probe.ticks.Load(), tc.wantTicks)
			}
			cancel()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("runWatch still running 1 s after cancel")
			}
			if n := probe.missed.Load(); n != 0 {
				t.Fatalf("%d of %d ticks evaluated without fresh runtime gauges", n, probe.ticks.Load())
			}
		})
	}
}
