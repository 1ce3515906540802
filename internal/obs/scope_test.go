package obs

import (
	"context"
	"testing"
	"time"
)

// nilScopeExercise calls every hot-path method on a disabled (nil) scope.
func nilScopeExercise() {
	var sc *Scope
	child := sc.Solver("online").Slot(4)
	span := child.StartSpan("core.slot")
	child.Iteration("lp.mehrotra", 3, IterStats{Primal: 1e-3})
	child.Rung("stage", "rung", "ok", time.Millisecond, 2)
	child.Count("x", 1)
	child.SetGauge("g", 1)
	child.RecordLatency("latency.h.seconds", 1)
	_ = child.CounterValue(MetricSolverIters)
	span.End()
}

func TestNilScopeZeroAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, nilScopeExercise); allocs != 0 {
		t.Fatalf("nil-scope path allocates %g bytes-worth of objects per run, want 0", allocs)
	}
}

// TestSpanEndZeroAllocs pins the enabled span path with a nil sink: once
// the span's latency histogram exists, StartSpan/End allocate nothing.
func TestSpanEndZeroAllocs(t *testing.T) {
	sc := NewScope(NewRegistry(), nil)
	sc.StartSpan("core.slot").End() // creates latency.core.slot.seconds
	if allocs := testing.AllocsPerRun(100, func() { sc.StartSpan("core.slot").End() }); allocs != 0 {
		t.Fatalf("enabled span allocates %g objects per StartSpan/End, want 0", allocs)
	}
	if got := sc.Registry().Snapshot().Latencies["latency.core.slot.seconds"].Count; got != 102 {
		t.Fatalf("latency.core.slot.seconds count = %d, want 102", got)
	}
}

// TestIterationZeroAllocs pins the enabled iteration path with a nil sink:
// once the solver's "<name>.iterations" counter exists, Iteration allocates
// nothing, so an attached scope costs no garbage per solver iteration.
func TestIterationZeroAllocs(t *testing.T) {
	sc := NewScope(NewRegistry(), nil)
	sc.Iteration("lp.mehrotra", 0, IterStats{}) // creates lp.mehrotra.iterations
	if allocs := testing.AllocsPerRun(100, func() { sc.Iteration("lp.mehrotra", 1, IterStats{Gap: 1e-3}) }); allocs != 0 {
		t.Fatalf("enabled Iteration allocates %g objects per call, want 0", allocs)
	}
	if got := sc.CounterValue("lp.mehrotra.iterations"); got != 102 {
		t.Fatalf("lp.mehrotra.iterations = %d, want 102", got)
	}
	if got := sc.CounterValue(MetricSolverIters); got != 102 {
		t.Fatalf("%s = %d, want 102", MetricSolverIters, got)
	}
}

func TestNilScopeSafe(t *testing.T) {
	var sc *Scope
	if sc.Enabled() {
		t.Fatal("nil scope reports enabled")
	}
	if sc.Registry() != nil {
		t.Fatal("nil scope registry non-nil")
	}
	sc.SetClock(time.Now)
	sc.Emit(Event{Kind: KindIter})
	ran := false
	sc.Phase(nil, "p2-barrier", func() { ran = true })
	if !ran {
		t.Fatal("nil-scope Phase did not run fn")
	}
}

func TestPhaseRunsUnderLabel(t *testing.T) {
	sc := NewScope(NewRegistry(), nil)
	ran := false
	sc.Phase(context.Background(), "lp-mehrotra", func() { ran = true })
	if !ran {
		t.Fatal("Phase did not run fn")
	}
}

// BenchmarkNilScope is the acceptance benchmark for the disabled path: it
// must report 0 allocs/op.
func BenchmarkNilScope(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nilScopeExercise()
	}
}

// BenchmarkEnabledScope gives the enabled-path cost for comparison.
func BenchmarkEnabledScope(b *testing.B) {
	sc := NewScope(NewRegistry(), NewRingSink(1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := sc.Solver("online").Slot(i)
		span := slot.StartSpan("core.slot")
		slot.Iteration("convex.newton", 0, IterStats{Decrement: 0.1})
		span.End()
	}
}

// BenchmarkSpanEnd is the enabled span path with a nil sink, as the solvers
// run it when only metrics are collected.
func BenchmarkSpanEnd(b *testing.B) {
	sc := NewScope(NewRegistry(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.StartSpan("core.slot").End()
	}
}
