package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClock ticks one millisecond per call starting at a fixed epoch, so
// golden traces are byte-stable.
func fixedClock() func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// TestTraceGolden pins the JSONL schema: field names, field order, and
// omitempty behavior. If this test fails after an intentional schema change,
// regenerate with `go test ./internal/obs -run TraceGolden -update` and call
// the change out in review — downstream trace consumers parse these keys.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	sc := NewScope(NewRegistry(), NewJSONLSink(&buf))
	sc.SetClock(fixedClock())

	online := sc.Solver("online")
	slot := online.Slot(3)
	span := slot.StartSpan("core.slot")
	slot.Iteration("convex.newton", 1, IterStats{Stage: 1, Decrement: 0.25, Step: 1})
	slot.Iteration("lp.mehrotra", 2, IterStats{Primal: 1e-3, Dual: 2e-4, Gap: 5e-5})
	slot.Rung("core.p2[t=3]", "warm-start", "numerical", 2*time.Millisecond, 7)
	slot.Rung("core.p2[t=3]", "cold-start", "ok", 3*time.Millisecond, 9)
	span.End()

	golden := filepath.Join("testdata", "trace.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace drifted from golden schema.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestJSONLSinkConcurrentNoTornLines hammers one trace sink from many
// solver-like goroutines (the Workers>1 regime: parallel kernels and
// LCP-M prefix solves all emit into one sink) and asserts the
// JSONL output has no interleaved or torn lines: every line parses on its
// own and every emitted event is present exactly once. Run under -race
// (the obs-serve make target does).
func TestJSONLSinkConcurrentNoTornLines(t *testing.T) {
	const workers, perWorker = 16, 200
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sc := NewScope(NewRegistry(), sink)

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := sc.Solver("online").Slot(g)
			for i := 0; i < perWorker; i++ {
				slot.Iteration("lp.mehrotra", g*perWorker+i, IterStats{Primal: float64(i)})
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != workers*perWorker {
		t.Fatalf("got %d lines, want %d", len(lines), workers*perWorker)
	}
	seen := make(map[int]bool, len(lines))
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d torn or interleaved: %v\n%s", i+1, err, line)
		}
		if e.Kind != KindIter || e.Name != "lp.mehrotra" {
			t.Fatalf("line %d decoded to unexpected event %+v", i+1, e)
		}
		if seen[e.Iter] {
			t.Fatalf("iteration %d emitted twice", e.Iter)
		}
		seen[e.Iter] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("saw %d distinct iterations, want %d", len(seen), workers*perWorker)
	}
}

func TestRingSinkWraparound(t *testing.T) {
	s := NewRingSink(4)
	for i := 1; i <= 6; i++ {
		s.Emit(Event{Seq: int64(i)})
	}
	if s.Total() != 6 {
		t.Fatalf("total = %d, want 6", s.Total())
	}
	got := s.Events()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := int64(i + 3); e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestSpanIterationDelta(t *testing.T) {
	sc := NewScope(NewRegistry(), NewRingSink(0))
	sc.Iteration("warmup", 0, IterStats{})
	span := sc.StartSpan("work")
	for i := 0; i < 5; i++ {
		sc.Iteration("convex.newton", i, IterStats{})
	}
	span.End()

	ring := sc.core.sink.(*RingSink)
	events := ring.Events()
	end := events[len(events)-1]
	if end.Kind != KindSpanEnd || end.Name != "work" {
		t.Fatalf("last event = %+v, want span_end work", end)
	}
	// Only the 5 in-span iterations count, not the warmup one.
	if end.Iters != 5 {
		t.Fatalf("span iters = %d, want 5", end.Iters)
	}
	if sc.CounterValue(MetricSolverIters) != 6 {
		t.Fatalf("total iters = %d, want 6", sc.CounterValue(MetricSolverIters))
	}
	if st, ok := sc.Registry().Snapshot().Latencies["latency.work.seconds"]; !ok || st.Count != 1 {
		t.Fatalf("latency.work.seconds histogram missing or wrong count: %+v", st)
	}
}

func TestScopeLabels(t *testing.T) {
	ring := NewRingSink(0)
	sc := NewScope(nil, ring) // nil registry: events still flow
	sc.Solver("rfhc").Slot(9).Iteration("lp.mehrotra", 0, IterStats{})
	ev := ring.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events, want 1", len(ev))
	}
	if ev[0].Solver != "rfhc" || ev[0].Slot != 9 {
		t.Fatalf("labels = %q/%d, want rfhc/9", ev[0].Solver, ev[0].Slot)
	}
	if ev[0].Seq != 1 {
		t.Fatalf("seq = %d, want 1", ev[0].Seq)
	}
}
