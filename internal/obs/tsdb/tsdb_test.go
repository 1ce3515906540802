package tsdb

import (
	"bytes"
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

// TestRecordAllocs pins the zero-allocation record path — the contract the
// hotalloc analyzer enforces statically via the //soral:hotpath annotation.
func TestRecordAllocs(t *testing.T) {
	s := newSeries("m", 64)
	if n := testing.AllocsPerRun(1000, func() { s.Record(1, 2.5) }); n != 0 {
		t.Fatalf("Record allocated %v allocs/op, want 0", n)
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
// present when enabled, external source gauges by their given name.
func TestSamplerCopiesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("solver.iterations", 42)
	reg.SetGauge("attr.regret", 3.5)
	reg.RecordLatency("latency.core.slot.seconds", 1e-3)

	db := New(Options{})
	var after []int64
	smp := &Sampler{
		DB: db, Reg: reg, Runtime: true,
		Gauges:      []SourceGauge{{Name: "resilience.budget_frac", Read: func() float64 { return 0.25 }}},
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
	check("resilience.budget_frac", 3, 0.25)
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
}

// TestDumpIngestRoundTrip pins the -metrics-interval flow: periodic
// WriteSnapshot lines ingest into a store with the live sampler's naming.
func TestDumpIngestRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	times := tickTimes(5)
	for i, now := range times {
		reg.Add("journal.feed.dropped_lines", int64(i))
		reg.SetGauge("attr.competitive_ratio", 1+float64(i)/10)
		reg.RecordLatency("latency.core.slot.seconds", 1e-3)
		if err := WriteSnapshot(&buf, now, reg); err != nil {
			t.Fatal(err)
		}
	}

	db := New(Options{})
	n, err := db.Ingest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ingested %d lines, want 5", n)
	}
	pts := db.QuerySince("journal.feed.dropped_lines", 0)
	if len(pts) != 5 || pts[4].V != 0+1+2+3+4 {
		t.Fatalf("counter series = %+v", pts)
	}
	if pts := db.QuerySince("latency.core.slot.seconds.count", 0); len(pts) != 5 || pts[4].V != 5 {
		t.Fatalf("latency count series = %+v", pts)
	}
	if pts := db.QuerySince("attr.competitive_ratio", times[3].UnixNano()); len(pts) != 2 {
		t.Fatalf("ratio range query = %+v", pts)
	}

	// Corrupt input reports the failing line without losing the prefix.
	if _, err := db.Ingest(bytes.NewBufferString("{\"t_ns\":1}\nnot json\n")); err == nil {
		t.Fatal("Ingest accepted corrupt line")
	}
}
