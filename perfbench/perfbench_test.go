package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"soral/internal/core"
	"soral/internal/model"
	"soral/internal/obs/journal"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself as a set-up probe.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--probe" {
		os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestTinyRunPrintsEveryMetric runs each workload on a tiny horizon, once
// untraced and once traced, and checks that the result line carries every
// metric BENCHMARK.json names, with its unit, and nothing else.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, err := lookupWorkload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var stdout, stderr bytes.Buffer
			tiny := *w
			tiny.horizon = w.warmup + 8
			cfg := config{w: &tiny, seed: 3, trace: trace == "1", probes: 1, traceOut: t.TempDir()}
			ok, err := runBench(cfg, &stdout, &stderr)
			if err != nil || !ok {
				t.Fatalf("%s trace %s: ok %v, err %v: %s", w.name, trace, ok, err, stderr.String())
			}
			var res result
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
				t.Fatalf("%s trace %s: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// journaledEpisode decides a few slots of the warm-bursty workload with
// the journal in a regular file and returns what checkEpisode needs.
func journaledEpisode(t *testing.T) (*model.Network, *model.Inputs, []*model.Decision, []core.SlotReport, string) {
	t.Helper()
	w, err := lookupWorkload("warm-bursty")
	if err != nil {
		t.Fatal(err)
	}
	tiny := *w
	tiny.horizon = w.warmup + 6
	scen, err := tiny.instance(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jw := journal.NewWriter(f).WithSync(f, journal.SyncOnCommit())
	jw.Begin(journal.Header{Algorithm: "online"})
	opts := tiny.options()
	opts.Journal = jw
	o, err := core.NewOnline(scen.Net, scen.In, opts)
	if err != nil {
		t.Fatal(err)
	}
	decs, err := o.Run()
	if err != nil {
		t.Fatal(err)
	}
	jw.End(journal.Footer{})
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	if c := checkEpisode(scen.Net, scen.In, decs, o.Report().Slots, path); c.failed != 0 {
		t.Fatalf("clean episode failed its checks: %v", c.problems)
	}
	return scen.Net, scen.In, decs, o.Report().Slots, path
}

func TestCheckerRejectsFlippedJournalByte(t *testing.T) {
	net, in, decs, report, path := journaledEpisode(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A digit of a slot record in the middle of the file.
	mid := len(raw) / 2
	i := mid + bytes.IndexAny(raw[mid:], "0123456789")
	raw[i] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c := checkEpisode(net, in, decs, report, path)
	if c.failed != len(decs) {
		t.Fatalf("flipped byte: %d of %d slots failed (%v), want all", c.failed, len(decs), c.problems)
	}
}

func TestCheckerRejectsInfeasibleDecision(t *testing.T) {
	net, in, decs, report, path := journaledEpisode(t)
	bad := decs[4].Clone()
	for p := range bad.X {
		bad.X[p] = 0
	}
	decs[4] = bad
	c := checkEpisode(net, in, decs, report, path)
	if c.failed == 0 || !strings.Contains(strings.Join(c.problems, "\n"), "slot 4: decision violates") {
		t.Fatalf("infeasible decision passed: %d failed, %v", c.failed, c.problems)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), the one bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestSetupInputsIgnoreSeed pins that set-up does the same work on every
// seed: the network and the warm-up slots' inputs are the same across
// seeds, and the timed slots' are not.
func TestSetupInputsIgnoreSeed(t *testing.T) {
	for _, name := range []string{"cold-dense", "warm-bursty"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.instance(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.instance(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Net, b.Net) {
			t.Errorf("%s: the network depends on the seed", name)
		}
		for tt := 0; tt < w.warmup; tt++ {
			if !reflect.DeepEqual(a.In.PriceT2[tt], b.In.PriceT2[tt]) || !reflect.DeepEqual(a.In.Workload[tt], b.In.Workload[tt]) {
				t.Errorf("%s: warm-up slot %d's inputs depend on the seed", name, tt)
			}
		}
		if reflect.DeepEqual(a.In.PriceT2[w.warmup:], b.In.PriceT2[w.warmup:]) && reflect.DeepEqual(a.In.Workload[w.warmup:], b.In.Workload[w.warmup:]) {
			t.Errorf("%s: the timed slots' inputs do not depend on the seed", name)
		}
	}
}
