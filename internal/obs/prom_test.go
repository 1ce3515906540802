package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// promRegistry builds a registry with fixed contents so the exposition
// bytes are stable.
func promRegistry() *Registry {
	reg := NewRegistry()
	reg.Add("solver.iterations", 42)
	reg.Add("ladder.rungs", 3)
	reg.SetGauge("solver.workers", 4)
	reg.SetGauge("weird-name с юникодом", 1.5)
	for i := 1; i <= 10; i++ {
		reg.RecordLatency("latency.core.slot.seconds", float64(i)/1000)
	}
	return reg
}

// TestPrometheusGolden pins the /metrics wire format: metric naming and
// sanitization, HELP escaping, stable ordering, and the latency histogram
// lines (buckets, _sum/_count, quantile gauges). Regenerate with
// `go test ./internal/obs -run PrometheusGolden -update` after intentional
// format changes — scrapers parse these lines.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := promRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "prom.golden.txt")
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
		t.Errorf("exposition drifted from golden format.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusStableAcrossSnapshots re-encodes the same logical registry
// twice and requires identical bytes (map iteration must never leak into
// the wire format).
func TestPrometheusStableAcrossSnapshots(t *testing.T) {
	var a, b bytes.Buffer
	reg := promRegistry()
	if err := reg.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two snapshots of the same registry encoded differently")
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"lp.mehrotra.iterations":    "soral_lp_mehrotra_iterations",
		"latency.core.slot.seconds": "soral_latency_core_slot_seconds",
		"weird-name с юникодом":     "soral_weird_name___________",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPrometheusLatencyBuckets checks the bucketed-histogram exposition
// structurally (beyond the byte-for-byte golden): TYPE histogram, strictly
// increasing le bounds, monotone cumulative counts ending at a "+Inf"
// bucket equal to _count, and p50/p99/p999 gauge companions.
func TestPrometheusLatencyBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := promRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE soral_latency_core_slot_seconds histogram") {
		t.Fatalf("missing histogram TYPE line:\n%s", out)
	}
	var les []float64
	var cums []int64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "soral_latency_core_slot_seconds_bucket{le=\"") {
			continue
		}
		rest := strings.TrimPrefix(line, "soral_latency_core_slot_seconds_bucket{le=\"")
		q := strings.Index(rest, "\"")
		leStr, cntStr := rest[:q], strings.TrimSpace(rest[q+2:])
		le := math.Inf(1)
		if leStr != "+Inf" {
			v, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
			le = v
		}
		cnt, err := strconv.ParseInt(cntStr, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count %q: %v", cntStr, err)
		}
		les = append(les, le)
		cums = append(cums, cnt)
	}
	if len(les) < 2 {
		t.Fatalf("expected multiple bucket lines, got %d:\n%s", len(les), out)
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] || cums[i] < cums[i-1] {
			t.Fatalf("buckets not monotone at %d: le=%v cum=%v", i, les, cums)
		}
	}
	if !math.IsInf(les[len(les)-1], 1) || cums[len(cums)-1] != 10 {
		t.Fatalf("last bucket must be le=+Inf with count 10: le=%v cum=%v", les, cums)
	}
	for _, suffix := range []string{"_p50", "_p99", "_p999"} {
		if !strings.Contains(out, "soral_latency_core_slot_seconds"+suffix+" ") {
			t.Errorf("missing quantile gauge %s", suffix)
		}
	}
}
