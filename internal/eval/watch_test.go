package eval

import (
	"strings"
	"testing"

	"soral/internal/obs/journal"
	"soral/internal/obs/watch"
)

// TestWatchExperiment runs the full watchdog benchmark and pins its
// acceptance criteria: both seeded fault traces fire the intended alert,
// the trails reproduce bit-identically, and the monitoring overhead budget
// holds.
func TestWatchExperiment(t *testing.T) {
	tbl, rep, err := Watch(nil)
	if err != nil {
		t.Fatalf("watch experiment: %v", err)
	}
	if tbl == nil || len(tbl.Rows) != 3 || len(rep.Results) != 3 {
		t.Fatalf("report shape: %d rows, %+v", len(tbl.Rows), rep)
	}
	slo, ratio, overhead := rep.Results[0], rep.Results[1], rep.Results[2]
	sm, rm, om := slo.Metrics, ratio.Metrics, overhead.Metrics
	if slo.Name != "watch/slo-spike" || sm["fired_tick"] < 12 || sm["fired_tick"] >= 21 {
		t.Fatalf("slo entry = %+v (want firing inside the spike phase)", slo)
	}
	if slo.Info["resolved_tick"] <= sm["fired_tick"] || sm["alerts"] != 2 || !*slo.BitIdentical {
		t.Fatalf("slo entry = %+v", slo)
	}
	if ratio.Name != "watch/ratio-adversarial" || rm["ratio"] <= ratio.Info["certificate"] || !*ratio.BitIdentical {
		t.Fatalf("ratio entry = %+v", ratio)
	}
	if overhead.Name != "watch/overhead" || overhead.Info["record_allocs"] != 0 || om["overhead_frac"] >= 0.01 {
		t.Fatalf("overhead entry = %+v", overhead)
	}
}

// TestWatchReplayAdvisories pins the alert reconciliation: a journal with
// alert records replays clean, and each recorded transition surfaces as one
// advisory.
func TestWatchReplayAdvisories(t *testing.T) {
	j, alerts, _, _, _, err := watchRatioTrial(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("trial journaled no alerts")
	}
	res, err := Replay(DefaultContext(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("replay mismatches: %+v", res.Mismatches)
	}
	got := 0
	for _, adv := range res.Advisories {
		if adv.Field == "alert" {
			got++
			if !strings.Contains(adv.Got, watch.RuleRatioExceeded) && !strings.Contains(adv.Got, watch.RuleRatioApproach) {
				t.Fatalf("advisory names no known rule: %+v", adv)
			}
		}
	}
	if got != len(alerts) {
		t.Fatalf("%d alert advisories, want %d", got, len(alerts))
	}
	// And the flattened compare entries include the watch family.
	if j.Alerts[0].State != journal.AlertFiring {
		t.Fatalf("first alert = %+v, want firing", j.Alerts[0])
	}
}
