package watch

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"soral/internal/obs"
	"soral/internal/obs/hist"
	"soral/internal/obs/journal"
	"soral/internal/resilience"
)

// boolRule is a hand-driven rule for engine lifecycle tests.
type boolRule struct {
	name, sev string
	firing    bool
}

func (r *boolRule) Name() string     { return r.name }
func (r *boolRule) Severity() string { return r.sev }
func (r *boolRule) Eval(tns int64) Verdict {
	return Verdict{Firing: r.firing, Value: 2, Threshold: 1}
}
func (r *boolRule) Reason() string { return "" }

// TestEngineLifecycle pins the alert state machine: one firing alert per
// transition (not per tick), one resolved alert on recovery, history and
// Status coherent, hook invoked, metrics family maintained, records
// journaled.
func TestEngineLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	jw.Begin(journal.Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})

	var hooked []Alert
	r := &boolRule{name: "test-rule", sev: SeverityCritical}
	eng := New().AddRule(r).Metrics(reg).Journal(jw).OnAlert(func(a Alert) { hooked = append(hooked, a) })

	eng.Eval(1) // quiet
	r.firing = true
	eng.Eval(2) // fires
	eng.Eval(3) // still firing: no new alert
	r.firing = false
	eng.Eval(4) // resolves

	if len(hooked) != 2 {
		t.Fatalf("hook saw %d alerts, want 2 (firing+resolved): %+v", len(hooked), hooked)
	}
	if hooked[0].State != StateFiring || hooked[0].TNS != 2 || hooked[0].Severity != SeverityCritical {
		t.Fatalf("firing alert = %+v", hooked[0])
	}
	if hooked[1].State != StateResolved || hooked[1].TNS != 4 {
		t.Fatalf("resolved alert = %+v", hooked[1])
	}
	if got := reg.Counter(MetricAlertsFired); got != 1 {
		t.Fatalf("fired counter = %d, want 1", got)
	}
	if got := reg.Counter(MetricAlertsResolved); got != 1 {
		t.Fatalf("resolved counter = %d, want 1", got)
	}
	if got := reg.Gauge(MetricAlertsFiring); got != 0 {
		t.Fatalf("firing gauge = %g, want 0 after resolve", got)
	}
	st := eng.Status()
	if len(st.Firing) != 0 || len(st.History) != 2 {
		t.Fatalf("status = %+v", st)
	}

	jw.End(journal.Footer{})
	j, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Alerts) != 2 || j.Alerts[0].State != journal.AlertFiring || j.Alerts[1].State != journal.AlertResolved {
		t.Fatalf("journaled alerts = %+v", j.Alerts)
	}
}

// TestSLOBurnRate drives the detector through fast → spike → recovery with
// a deterministic synthetic latency trace.
func TestSLOBurnRate(t *testing.T) {
	h := hist.New()
	r := SLOBurnRate(h, SLOConfig{
		Objective: 5 * time.Millisecond, Target: 0.99,
		ShortWindow: 3, LongWindow: 9, MaxBurn: 10,
	})
	if r.Name() != RuleSLOBurnRate || r.Severity() != SeverityWarn {
		t.Fatalf("identity = %s/%s", r.Name(), r.Severity())
	}

	tick := func(i int) Verdict { return r.Eval(int64(i)) }
	// 10 ticks of fast slots: 20 good observations per tick.
	n := 0
	for i := 0; i < 10; i++ {
		for k := 0; k < 20; k++ {
			h.Record(1e-3)
		}
		if v := tick(n); v.Firing {
			t.Fatalf("fired on healthy tick %d: %+v", n, v)
		}
		n++
	}
	// Spike: every slot blows the objective. Short window saturates after 3
	// ticks; the long window (9) needs enough bad mass: badFrac over 9 ticks
	// must exceed MaxBurn*(1-Target) = 0.1.
	fired := false
	for i := 0; i < 9; i++ {
		for k := 0; k < 20; k++ {
			h.Record(50e-3)
		}
		if v := tick(n); v.Firing {
			fired = true
			if v.Threshold != 10 || v.Value < 10 {
				t.Fatalf("firing verdict = %+v", v)
			}
			break
		}
		n++
	}
	if !fired {
		t.Fatal("SLO burn-rate never fired during a sustained spike")
	}
	// Recovery: fast slots flush the short window below MaxBurn.
	resolved := false
	for i := 0; i < 12; i++ {
		for k := 0; k < 20; k++ {
			h.Record(1e-3)
		}
		if v := tick(n); !v.Firing {
			resolved = true
			break
		}
		n++
	}
	if !resolved {
		t.Fatal("SLO burn-rate never resolved after recovery")
	}
}

// TestCompetitiveRatioRules pins the approach/exceed pair against a live
// gauge.
func TestCompetitiveRatioRules(t *testing.T) {
	reg := obs.NewRegistry()
	approach, exceeded := CompetitiveRatioRules(reg, 3.0, 0.9, 1)
	if approach.Severity() != SeverityWarn || exceeded.Severity() != SeverityCritical {
		t.Fatalf("severities = %s/%s", approach.Severity(), exceeded.Severity())
	}
	// No data: ratio gauge 0 → neither fires.
	if approach.Eval(1).Firing || exceeded.Eval(1).Firing {
		t.Fatal("ratio rules fired with no data")
	}
	reg.SetGauge("attr.competitive_ratio", 2.8)
	if v := approach.Eval(2); !v.Firing || v.Threshold != 2.7 {
		t.Fatalf("approach at 2.8 vs 2.7: %+v", v)
	}
	if exceeded.Eval(2).Firing {
		t.Fatal("critical fired below the certificate")
	}
	reg.SetGauge("attr.competitive_ratio", 3.1)
	if v := exceeded.Eval(3); !v.Firing || v.Value != 3.1 || v.Threshold != 3.0 {
		t.Fatalf("exceeded at 3.1 vs 3.0: %+v", v)
	}
	// +Inf certificate (eps <= 0) disables both.
	appInf, excInf := CompetitiveRatioRules(reg, math.Inf(1), 0.9, 1)
	if appInf.Eval(4).Firing || excInf.Eval(4).Firing {
		t.Fatal("infinite certificate must disable the rules")
	}
}

// TestWarmStartRules drives collapse and blowup against a healthy baseline.
func TestWarmStartRules(t *testing.T) {
	reg := obs.NewRegistry()
	collapse, blowup := WarmStartRules(reg, WarmConfig{Window: 2, MinAttempts: 4})

	tickN := 0
	tick := func() (c, b Verdict) {
		tickN++
		return collapse.Eval(int64(tickN)), blowup.Eval(int64(tickN))
	}
	// 3 healthy windows: per window 8 hits, 2 misses (rate 0.8), 100 iters.
	for w := 0; w < 3; w++ {
		reg.Add(obs.MetricWarmHits, 8)
		reg.Add(obs.MetricWarmMisses, 2)
		reg.Add(obs.MetricSolverIters, 100)
		tick()
		if c, b := tick(); c.Firing || b.Firing {
			t.Fatalf("fired on healthy window %d: %+v %+v", w, c, b)
		}
	}
	// Collapsed window: 1 hit, 9 misses (rate 0.1 < 0.5*0.8) and 400 iters
	// (> 3× baseline 100).
	reg.Add(obs.MetricWarmHits, 1)
	reg.Add(obs.MetricWarmMisses, 9)
	reg.Add(obs.MetricSolverIters, 400)
	tick()
	c, b := tick()
	if !c.Firing {
		t.Fatalf("collapse did not fire: %+v", c)
	}
	if !b.Firing {
		t.Fatalf("blowup did not fire: %+v", b)
	}
	// Recovery window restores both.
	reg.Add(obs.MetricWarmHits, 8)
	reg.Add(obs.MetricWarmMisses, 2)
	reg.Add(obs.MetricSolverIters, 100)
	tick()
	c, b = tick()
	if c.Firing || b.Firing {
		t.Fatalf("did not resolve after recovery: %+v %+v", c, b)
	}
}

// TestResilienceRules covers the degradation-burst rule.
func TestResilienceRules(t *testing.T) {
	h := resilience.NewHealth()
	burst := DegradationBurst(h, 3)
	h.RecordSlot(0, resilience.HealthDegraded)
	h.RecordSlot(1, resilience.HealthDegraded)
	if burst.Eval(1).Firing {
		t.Fatal("burst fired below the streak threshold")
	}
	h.RecordSlot(2, resilience.HealthDegraded)
	if v := burst.Eval(2); !v.Firing || v.Value != 3 {
		t.Fatalf("burst at 3 consecutive: %+v", v)
	}
	h.RecordSlot(3, resilience.HealthOK)
	if burst.Eval(3).Firing {
		t.Fatal("burst did not resolve after a clean slot")
	}
}

// TestFeedDropRate pins the windowed drop detector.
func TestFeedDropRate(t *testing.T) {
	f := journal.NewFeed(4)
	r := FeedDropRate(f, 3, 0)
	if r.Eval(1).Firing {
		t.Fatal("fired with no drops")
	}
	// Stall a subscriber and overflow its buffer to force drops.
	_, ch, cancel := f.Subscribe()
	defer cancel()
	for i := 0; i < 600; i++ {
		f.Publish([]byte("x\n"))
	}
	if f.Dropped() == 0 {
		t.Fatal("test setup produced no drops")
	}
	if v := r.Eval(2); !v.Firing || v.Value != float64(f.Dropped()) {
		t.Fatalf("drop verdict = %+v (dropped %d)", v, f.Dropped())
	}
	// With no further drops the window slides clean and the rule resolves.
	for i := 0; i < 4; i++ {
		if v := r.Eval(int64(3 + i)); i == 3 && v.Firing {
			t.Fatalf("did not resolve after quiet window: %+v", v)
		}
	}
	_ = ch
}

// TestStandardRules pins the rule set soral -watch installs: the SLO rule
// only with an objective, the feed rule only with a feed.
func TestStandardRules(t *testing.T) {
	reg := obs.NewRegistry()
	names := func(rules []Rule) (out []string) {
		for _, r := range rules {
			out = append(out, r.Name())
		}
		return out
	}
	base := []string{RuleRatioApproach, RuleRatioExceeded, RuleWarmCollapse, RuleIterBlowup, RuleDegradationBurst}
	if got := names(Standard(reg, 5, 0, resilience.NewHealth(), nil)); !slices.Equal(got, base) {
		t.Fatalf("Standard without objective or feed = %v, want %v", got, base)
	}
	all := append(append([]string{RuleSLOBurnRate}, base...), RuleFeedDrops)
	if got := names(Standard(reg, 5, 5*time.Millisecond, resilience.NewHealth(), journal.NewFeed(0))); !slices.Equal(got, all) {
		t.Fatalf("Standard with both = %v, want %v", got, all)
	}
}
