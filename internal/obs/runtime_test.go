package obs

import (
	"strings"
	"testing"
)

// TestCollectRuntime pins the runtime collector family: the gauges land in
// the registry under their vetted names and flow into the Prometheus dump
// that -metrics and /metrics write.
func TestCollectRuntime(t *testing.T) {
	CollectRuntime(nil, nil) // nil registry is a no-op

	reg := NewRegistry()
	CollectRuntime(reg, nil)
	if g := reg.Gauge(MetricGoroutines); g < 1 {
		t.Fatalf("goroutines gauge = %g, want >= 1", g)
	}
	if g := reg.Gauge(MetricHeapBytes); g <= 0 {
		t.Fatalf("heap gauge = %g, want > 0", g)
	}
	if p := reg.Gauge(MetricGCPauseP99); p < 0 {
		t.Fatalf("gc pause p99 = %g, want >= 0", p)
	}
	if c := reg.Counter(MetricGCCycles); c < 0 {
		t.Fatalf("gc cycles = %d, want >= 0", c)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricGoroutines, MetricHeapBytes, MetricGCPauseP99, MetricGCCycles} {
		if !strings.Contains(sb.String(), promName(name)+" ") {
			t.Fatalf("dump missing %s:\n%s", promName(name), sb.String())
		}
	}
}
