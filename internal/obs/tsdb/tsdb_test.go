package tsdb

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"soral/internal/obs"
)

func tickTimes(n int) []time.Time {
	base := time.Unix(1700000000, 0).UTC()
	out := make([]time.Time, n)
	for i := range out {
		out[i] = base.Add(time.Duration(i) * time.Second)
	}
	return out
}

// TestRecordAllocs pins the zero-allocation record path: the sampler and
// the watch engine record into every series on each tick.
func TestRecordAllocs(t *testing.T) {
	s := newSeries("m", 64)
	if n := testing.AllocsPerRun(1000, func() { s.Record(1, 2.5) }); n != 0 {
		t.Fatalf("Record allocated %v allocs/op, want 0", n)
	}
}

// TestSamplerTickZeroAlloc pins the sampler tick's allocation budget: once
// the first tick has created every series, a tick over counters, gauges,
// latency histograms and the runtime collectors allocates nothing. The
// watch experiment holds the tick to 1% of the slot p50.
func TestSamplerTickZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("solver.iterations", 42)
	reg.SetGauge("attr.regret", 3.5)
	reg.RecordLatency("latency.core.slot.seconds", 1e-3)
	smp := &Sampler{DB: New(Options{}), Reg: reg, Runtime: true}
	now := time.Unix(1700000000, 0)
	smp.Tick(now)
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		smp.Tick(now)
	}); n != 0 {
		t.Fatalf("Sampler.Tick allocated %v allocs/op after the first tick, want 0", n)
	}
}

// TestSamplerRunStopsOnCancel pins the sampler goroutine's exit contract:
// Run keeps ticking until its context is canceled, then returns within a
// second.
func TestSamplerRunStopsOnCancel(t *testing.T) {
	ticks := make(chan struct{}, 1)
	smp := &Sampler{DB: New(Options{}), AfterSample: func(int64) {
		select {
		case ticks <- struct{}{}:
		default:
		}
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		smp.Run(ctx, time.Millisecond)
	}()
	// The immediate sample plus two ticker samples: the loop is running.
	for i := 0; i < 3; i++ {
		select {
		case <-ticks:
		case <-time.After(5 * time.Second):
			t.Fatalf("Sampler.Run took %d samples in 5s, want 3", i)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sampler.Run did not return within 1s of its context being canceled")
	}
}

// TestSeriesRingSemantics pins wraparound: a full ring retains exactly the
// newest capacity points, oldest first.
func TestSeriesRingSemantics(t *testing.T) {
	s := newSeries("m", 4)
	for i := 0; i < 10; i++ {
		s.Record(int64(i), float64(i)*10)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	pts := s.Since(math.MinInt64)
	if len(pts) != 4 {
		t.Fatalf("Since returned %d points, want 4", len(pts))
	}
	for k, p := range pts {
		wantT := int64(6 + k)
		if p.TNS != wantT || p.V != float64(wantT)*10 {
			t.Fatalf("point %d = %+v, want t=%d v=%g", k, p, wantT, float64(wantT)*10)
		}
	}
	if got := s.Since(8); len(got) != 2 || got[0].TNS != 8 {
		t.Fatalf("Since(8) = %+v, want points 8,9", got)
	}
	if last, ok := s.Latest(); !ok || last.TNS != 9 {
		t.Fatalf("Latest = %+v/%v, want t=9", last, ok)
	}
}

// TestSeriesConcurrentReadWrite races one writer against readers (run under
// -race): readers must never see a torn point — every returned point must be
// one the writer actually recorded (v == 10*t).
func TestSeriesConcurrentReadWrite(t *testing.T) {
	s := newSeries("m", 32)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, p := range s.Since(0) {
					if p.V != float64(p.TNS)*10 {
						t.Errorf("torn point: %+v", p)
						return
					}
				}
			}
		}()
	}
	for i := int64(1); i <= 20000; i++ {
		s.Record(i, float64(i)*10)
	}
	close(done)
	wg.Wait()
}

// TestSamplerTickConcurrentWithQueries races a ticking sampler, which
// writes its whole column under the store's points lock, against readers
// querying the store (run under -race): every returned point must be one
// the sampler wrote, the counter's value at that tick.
func TestSamplerTickConcurrentWithQueries(t *testing.T) {
	reg := obs.NewRegistry()
	db := New(Options{Resolution: time.Second, Retention: 32 * time.Second})
	smp := &Sampler{DB: db, Reg: reg}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, p := range db.QuerySince("ticks", 0) {
					if p.V != float64(p.TNS) {
						t.Errorf("torn point: %+v", p)
						return
					}
				}
			}
		}()
	}
	for i := int64(1); i <= 5000; i++ {
		reg.SetCounter("ticks", i)
		smp.Tick(time.Unix(0, i))
	}
	close(done)
	wg.Wait()
	if n := len(db.QuerySince("ticks", 0)); n != 32 {
		t.Fatalf("%d points retained, want 32", n)
	}
}

// TestDBQueryAndNames covers the obs.TimeseriesSource surface.
func TestDBQueryAndNames(t *testing.T) {
	var _ obs.TimeseriesSource = New(Options{}) // compile-time check, kept honest

	db := New(Options{Resolution: time.Second, Retention: time.Minute})
	if db.Capacity() != 60 {
		t.Fatalf("capacity = %d, want 60", db.Capacity())
	}
	db.Series("b.two").Record(5, 2)
	db.Series("a.one").Record(5, 1)
	db.Series("a.one").Record(6, 1.5)
	names := db.MetricNames()
	if len(names) != 2 || names[0] != "a.one" || names[1] != "b.two" {
		t.Fatalf("MetricNames = %v", names)
	}
	if pts := db.QuerySince("a.one", 6); len(pts) != 1 || pts[0].V != 1.5 {
		t.Fatalf("QuerySince(a.one, 6) = %+v", pts)
	}
	if pts := db.QuerySince("missing", 0); pts != nil {
		t.Fatalf("QuerySince(missing) = %+v, want nil", pts)
	}
}

// TestSamplerCopiesRegistry pins the sampler's naming scheme: counters and
// gauges verbatim, latency histograms as .p50/.p99/.count, runtime gauges
// present when enabled.
func TestSamplerCopiesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("solver.iterations", 42)
	reg.SetGauge("attr.regret", 3.5)
	reg.RecordLatency("latency.core.slot.seconds", 1e-3)

	db := New(Options{})
	var after []int64
	smp := &Sampler{
		DB: db, Reg: reg, Runtime: true,
		AfterSample: func(tns int64) { after = append(after, tns) },
	}
	times := tickTimes(3)
	for _, now := range times {
		smp.Tick(now)
	}

	check := func(name string, wantLen int, wantLast float64) {
		t.Helper()
		pts := db.QuerySince(name, 0)
		if len(pts) != wantLen {
			t.Fatalf("%s: %d points, want %d", name, len(pts), wantLen)
		}
		if got := pts[len(pts)-1].V; got != wantLast {
			t.Fatalf("%s last = %g, want %g", name, got, wantLast)
		}
	}
	check("solver.iterations", 3, 42)
	check("attr.regret", 3, 3.5)
	check("latency.core.slot.seconds.count", 3, 1)
	if pts := db.QuerySince("latency.core.slot.seconds.p99", 0); len(pts) != 3 || pts[0].V <= 0 {
		t.Fatalf("latency p99 series = %+v", pts)
	}
	if pts := db.QuerySince(obs.MetricGoroutines, 0); len(pts) != 3 || pts[0].V < 1 {
		t.Fatalf("runtime goroutines series = %+v", pts)
	}
	if len(after) != 3 || after[0] != times[0].UnixNano() {
		t.Fatalf("AfterSample hook saw %v", after)
	}
	// Registry also carries the runtime gauges for /metrics.
	if reg.Gauge(obs.MetricHeapBytes) <= 0 {
		t.Fatal("CollectRuntime left heap gauge unset in registry")
	}

	// Metrics that first appear after the sampler has cached its series are
	// picked up on the next tick, next to the ones it already holds.
	reg.Add("convex.newton.iterations", 7)
	reg.RecordLatency("latency.convex.linesearch.seconds", 2e-6)
	smp.Tick(times[2].Add(time.Second))
	check("solver.iterations", 4, 42)
	check("convex.newton.iterations", 1, 7)
	check("latency.core.slot.seconds.count", 4, 1)
	check("latency.convex.linesearch.seconds.count", 1, 1)
}
