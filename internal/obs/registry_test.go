package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	if got := r.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	r.Add("a", 2)
	r.Add("a", 3)
	if got := r.Counter("a"); got != 5 {
		t.Fatalf("counter a = %d, want 5", got)
	}
	r.SetGauge("g", 1.5)
	r.SetGauge("g", -2.25)
	if got := r.Gauge("g"); got != -2.25 {
		t.Fatalf("gauge g = %g, want -2.25", got)
	}
	if got := r.Gauge("missing"); got != 0 {
		t.Fatalf("missing gauge = %g, want 0", got)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Add("z.count", 1)
	r.Add("a.count", 7)
	r.SetGauge("m.gauge", 0.5)
	r.RecordLatency("lat", 2)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "counter a.count 7\n" +
		"counter z.count 1\n" +
		"gauge m.gauge 0.5\n" +
		"latency lat count=1 sum=2 min=2 max=2 p50=2 p99=2 p999=2\n"
	if sb.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run with
// -race (Makefile check does) to catch data races.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	sc := NewScope(r, nil)
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add("shared", 1)
				r.Add("own", int64(w%3))
				r.SetGauge("g", float64(i))
				r.RecordLatency("h", float64(i))
				sc.StartSpan("s").End()
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared"); got != workers*perWorker {
		t.Fatalf("shared = %d, want %d", got, workers*perWorker)
	}
	snap := r.Snapshot()
	for _, name := range []string{"h", "latency.s.seconds"} {
		if got := snap.Latencies[name].Count; got != workers*perWorker {
			t.Fatalf("%s count = %d, want %d", name, got, workers*perWorker)
		}
	}
}
