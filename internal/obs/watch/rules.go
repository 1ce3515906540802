package watch

import (
	"fmt"
	"math"
	"time"

	"soral/internal/obs"
	"soral/internal/obs/hist"
	"soral/internal/obs/journal"
	"soral/internal/resilience"
)

// Built-in rule names (the journaled rule identities).
const (
	RuleSLOBurnRate      = "slo-burn-rate"
	RuleRatioApproach    = "competitive-ratio-approach"
	RuleRatioExceeded    = "competitive-ratio"
	RuleWarmCollapse     = "warmstart-collapse"
	RuleIterBlowup       = "warmstart-iteration-blowup"
	RuleDegradationBurst = "degradation-burst"
	RuleFeedDrops        = "journal-feed-drops"
)

// Standard returns the rules soral -watch installs: the SLO burn rate of
// latency.core.slot.seconds against slo when slo > 0, the competitive-ratio
// pair against cert with a 3-tick hold, the warm-start pair, the
// degradation burst on h, and the drop rate of feed when there is one.
func Standard(reg *obs.Registry, cert float64, slo time.Duration, h *resilience.Health, feed *journal.Feed) []Rule {
	var rules []Rule
	if slo > 0 {
		rules = append(rules, SLOBurnRate(reg.LatencyHist("latency.core.slot.seconds"), SLOConfig{Objective: slo}))
	}
	approach, exceeded := CompetitiveRatioRules(reg, cert, 0, 3)
	collapse, blowup := WarmStartRules(reg, WarmConfig{})
	rules = append(rules, approach, exceeded, collapse, blowup, DegradationBurst(h, 0))
	if feed != nil {
		rules = append(rules, FeedDropRate(feed, 0, 0))
	}
	return rules
}

// ---------------------------------------------------------------------------
// 1. SLO burn rate (multi-window, Google SRE style, scaled to slot time)

// SLOConfig tunes the burn-rate detector.
type SLOConfig struct {
	// Objective is the per-slot latency objective: a slot whose core.slot
	// latency exceeds it spends error budget.
	Objective time.Duration
	// Target is the SLO target fraction of good slots (default 0.99, i.e. a
	// 1% error budget).
	Target float64
	// ShortWindow and LongWindow are the two burn windows in watchdog ticks
	// (defaults 5 and 60 — the 5m/1h pairing scaled to slot time). The alert
	// fires only when BOTH windows burn faster than MaxBurn: the short
	// window makes it fast, the long window keeps a single spiky tick from
	// paging.
	ShortWindow, LongWindow int
	// MaxBurn is the firing threshold on the burn rate — the multiple of
	// the error budget being consumed (default 14.4, the classic fast-burn
	// threshold: 14.4× exhausts a 30-day budget in 50 hours).
	MaxBurn float64
}

func (c *SLOConfig) defaults() {
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = 0.99
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5
	}
	if c.LongWindow <= c.ShortWindow {
		c.LongWindow = 12 * c.ShortWindow
	}
	if c.MaxBurn <= 0 {
		c.MaxBurn = 14.4
	}
}

type sloRule struct {
	h   *hist.Hist
	cfg SLOConfig

	ticks       int64
	totals      []int64 // ring of cumulative observation counts, one per tick
	goods       []int64 // ring of cumulative good (≤ objective) counts
	short, long float64 // the latest tick's burn rates
}

// SLOBurnRate watches a latency histogram (canonically the
// latency.core.slot.seconds family) against a per-slot objective. Each tick
// it samples the histogram's cumulative total and good counts; the burn rate
// over a window is the window's bad fraction divided by the error budget
// 1−Target. Firing requires both windows above MaxBurn; either window
// recovering resolves.
func SLOBurnRate(h *hist.Hist, cfg SLOConfig) Rule {
	cfg.defaults()
	n := cfg.LongWindow + 1
	return &sloRule{h: h, cfg: cfg, totals: make([]int64, n), goods: make([]int64, n)}
}

func (r *sloRule) Name() string     { return RuleSLOBurnRate }
func (r *sloRule) Severity() string { return SeverityWarn }

func (r *sloRule) Eval(tns int64) Verdict {
	total := r.h.Count()
	good := r.h.CountAtOrBelow(r.cfg.Objective.Seconds())
	k := r.ticks
	n := int64(len(r.totals))
	r.totals[k%n], r.goods[k%n] = total, good
	r.ticks++

	r.short = r.burn(k, int64(r.cfg.ShortWindow))
	r.long = r.burn(k, int64(r.cfg.LongWindow))
	return Verdict{
		Firing:    r.short >= r.cfg.MaxBurn && r.long >= r.cfg.MaxBurn,
		Value:     math.Min(r.short, r.long),
		Threshold: r.cfg.MaxBurn,
	}
}

func (r *sloRule) Reason() string {
	return fmt.Sprintf("burn %.3g×/%.3g× budget (short/long) against objective %v",
		r.short, r.long, r.cfg.Objective)
}

// burn computes the burn rate of the window ending at tick k.
func (r *sloRule) burn(k, w int64) float64 {
	j := k - w
	if j < 0 {
		j = 0
	}
	n := int64(len(r.totals))
	dTotal := r.totals[k%n] - r.totals[j%n]
	if dTotal <= 0 {
		return 0
	}
	dBad := dTotal - (r.goods[k%n] - r.goods[j%n])
	return (float64(dBad) / float64(dTotal)) / (1 - r.cfg.Target)
}

// ---------------------------------------------------------------------------
// 2. Competitive ratio vs the 1+2/ε certificate

type ratioRule struct {
	reg       *obs.Registry
	name      string
	severity  string
	threshold float64
	hold      int

	above int // consecutive ticks at or over threshold
}

func (r *ratioRule) Name() string     { return r.name }
func (r *ratioRule) Severity() string { return r.severity }

func (r *ratioRule) Eval(tns int64) Verdict {
	ratio := r.reg.Gauge("attr.competitive_ratio")
	if ratio > 0 && !math.IsInf(r.threshold, 1) && ratio >= r.threshold {
		r.above++
	} else {
		r.above = 0
	}
	return Verdict{Firing: r.above >= r.hold, Value: ratio, Threshold: r.threshold}
}

func (r *ratioRule) Reason() string {
	return fmt.Sprintf("live CumCost/CumLB ratio vs certificate share %.6g (held %d ticks, need %d)",
		r.threshold, r.above, r.hold)
}

// CompetitiveRatioRules watches the live attr.competitive_ratio gauge (set
// by core at every commit) against the certificate (attr.Certificate, the
// normalized 1+2/ε bound; pass core.Params.Certificate()). Two rules come
// back: a warn rule arming at approachFrac of the certificate (default 0.9)
// and a critical rule at the certificate itself — the class cmd/soral
// escalates to Health.Fail, because a trajectory past its certificate has
// left the regime Theorem 1's argument protects.
//
// holdTicks (default 1) is the anti-flap clause: the verdict fires only once
// the ratio has sat at or above the threshold for that many consecutive
// ticks. Theorem 1 bounds the full-horizon ratio, not prefixes, and the
// first slots of a run can transiently exceed the certificate while the
// lower bound is still tiny — cmd/soral passes 3 so only sustained
// exceedance pages.
func CompetitiveRatioRules(reg *obs.Registry, certificate, approachFrac float64, holdTicks int) (approach, exceeded Rule) {
	if approachFrac <= 0 || approachFrac >= 1 {
		approachFrac = 0.9
	}
	if holdTicks <= 0 {
		holdTicks = 1
	}
	return &ratioRule{reg: reg, name: RuleRatioApproach, severity: SeverityWarn,
			threshold: approachFrac * certificate, hold: holdTicks},
		&ratioRule{reg: reg, name: RuleRatioExceeded, severity: SeverityCritical,
			threshold: certificate, hold: holdTicks}
}

// ---------------------------------------------------------------------------
// 3. Warm-start collapse and iteration blowup vs a rolling baseline

// WarmConfig tunes the warm-start regression detectors.
type WarmConfig struct {
	// Window is the judgment granularity in watchdog ticks (default 10): the
	// detectors compare each completed window against the rolling baseline.
	Window int
	// MinAttempts is the minimum warm-start attempts a window must carry
	// before its hit rate is judged (default 8; quiet windows are skipped).
	MinAttempts int64
	// CollapseFrac fires the collapse rule when a window's hit rate drops
	// below this fraction of the baseline (default 0.5).
	CollapseFrac float64
	// BlowupFactor fires the blowup rule when a window's iteration
	// consumption exceeds this multiple of the baseline (default 3).
	BlowupFactor float64
	// ewmaAlpha weights the rolling baseline update (fixed 0.3): healthy
	// windows fold in; firing windows do not, so a regression cannot drag
	// the baseline down to meet it.
}

func (c *WarmConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 10
	}
	if c.MinAttempts <= 0 {
		c.MinAttempts = 8
	}
	if c.CollapseFrac <= 0 || c.CollapseFrac >= 1 {
		c.CollapseFrac = 0.5
	}
	if c.BlowupFactor <= 1 {
		c.BlowupFactor = 3
	}
}

const warmEWMAAlpha = 0.3

type warmCollapseRule struct {
	reg *obs.Registry
	cfg WarmConfig

	ticks                  int
	lastHits, lastAttempts int64
	baseline               float64
	windows                int // healthy windows folded into baseline
	last                   Verdict
	judged                 float64 // the baseline last judged against
}

// WarmStartRules watches the warmstart.* counter family (DESIGN.md §13).
// The collapse rule fires when a window's hit rate (hits + cache hits over
// all attempts) falls below CollapseFrac of the rolling baseline; the blowup
// rule fires when a window's solver.iterations delta exceeds BlowupFactor
// times its baseline. Both need two healthy windows to arm, so cold starts
// never page.
func WarmStartRules(reg *obs.Registry, cfg WarmConfig) (collapse, blowup Rule) {
	cfg.defaults()
	return &warmCollapseRule{reg: reg, cfg: cfg}, &iterBlowupRule{reg: reg, cfg: cfg}
}

func (r *warmCollapseRule) Name() string     { return RuleWarmCollapse }
func (r *warmCollapseRule) Severity() string { return SeverityWarn }

func (r *warmCollapseRule) Eval(tns int64) Verdict {
	r.ticks++
	if r.ticks%r.cfg.Window != 0 {
		return r.last
	}
	hits := r.reg.Counter(obs.MetricWarmHits) + r.reg.Counter(obs.MetricWarmCacheHits)
	attempts := hits + r.reg.Counter(obs.MetricWarmMisses) + r.reg.Counter(obs.MetricWarmFallbacks)
	dHits, dAttempts := hits-r.lastHits, attempts-r.lastAttempts
	r.lastHits, r.lastAttempts = hits, attempts
	if dAttempts < r.cfg.MinAttempts {
		return r.last // quiet window: hold the previous verdict
	}
	rate := float64(dHits) / float64(dAttempts)
	threshold := r.cfg.CollapseFrac * r.baseline
	firing := r.windows >= 2 && rate < threshold
	r.last = Verdict{Firing: firing, Value: rate, Threshold: threshold}
	r.judged = r.baseline
	if !firing {
		r.baseline = ewma(r.baseline, rate, r.windows)
		r.windows++
	}
	return r.last
}

func (r *warmCollapseRule) Reason() string {
	return fmt.Sprintf("window hit rate %.3g vs %.3g (%.3g× baseline %.3g)",
		r.last.Value, r.last.Threshold, r.cfg.CollapseFrac, r.judged)
}

type iterBlowupRule struct {
	reg *obs.Registry
	cfg WarmConfig

	ticks     int
	lastIters int64
	baseline  float64
	windows   int
	last      Verdict
	dIters    int64   // the iterations of the last judged window
	judged    float64 // the baseline last judged against
}

func (r *iterBlowupRule) Name() string     { return RuleIterBlowup }
func (r *iterBlowupRule) Severity() string { return SeverityWarn }

func (r *iterBlowupRule) Eval(tns int64) Verdict {
	r.ticks++
	if r.ticks%r.cfg.Window != 0 {
		return r.last
	}
	iters := r.reg.Counter(obs.MetricSolverIters)
	dIters := iters - r.lastIters
	r.lastIters = iters
	if dIters <= 0 {
		return r.last // idle window
	}
	threshold := r.cfg.BlowupFactor * r.baseline
	firing := r.windows >= 2 && float64(dIters) > threshold
	r.last = Verdict{Firing: firing, Value: float64(dIters), Threshold: threshold}
	r.dIters, r.judged = dIters, r.baseline
	if !firing {
		r.baseline = ewma(r.baseline, float64(dIters), r.windows)
		r.windows++
	}
	return r.last
}

func (r *iterBlowupRule) Reason() string {
	return fmt.Sprintf("window consumed %d iterations vs baseline %.6g", r.dIters, r.judged)
}

// ewma folds sample into the rolling baseline; the first sample seeds it.
func ewma(baseline, sample float64, seen int) float64 {
	if seen == 0 {
		return sample
	}
	return (1-warmEWMAAlpha)*baseline + warmEWMAAlpha*sample
}

// ---------------------------------------------------------------------------
// 4. Resilience: degradation-rung burst

type degradeRule struct {
	health *resilience.Health
	max    int
	// consec and lastSlot are the latest tick's streak and slot.
	consec, lastSlot int
}

// DegradationBurst fires while the health tracker reports maxConsecutive or
// more carried-forward slots in a row (default 3) — the streak Theorem 1's
// per-slot argument does not cover. It resolves as soon as a slot solves.
func DegradationBurst(h *resilience.Health, maxConsecutive int) Rule {
	if maxConsecutive <= 0 {
		maxConsecutive = 3
	}
	return &degradeRule{health: h, max: maxConsecutive}
}

func (r *degradeRule) Name() string     { return RuleDegradationBurst }
func (r *degradeRule) Severity() string { return SeverityWarn }

func (r *degradeRule) Eval(tns int64) Verdict {
	s := r.health.Snapshot()
	r.consec, r.lastSlot = s.ConsecutiveDegraded, s.LastSlot
	return Verdict{Firing: r.consec >= r.max, Value: float64(r.consec), Threshold: float64(r.max)}
}

func (r *degradeRule) Reason() string {
	return fmt.Sprintf("%d consecutive carried-forward slots (last slot %d)", r.consec, r.lastSlot)
}

// ---------------------------------------------------------------------------
// 5. Journal feed drop rate

type feedRule struct {
	feed     *journal.Feed
	window   int
	maxDrops int64

	ticks int64
	ring  []int64 // cumulative dropped-lines counter, one per tick
	delta int64   // lines dropped in the latest tick's window
}

// FeedDropRate fires when the journal feed dropped more than maxDrops lines
// (default 0 — any drop) to slow subscribers within the last window ticks
// (default 10). Drops mean a live /runs consumer is not keeping up; the
// durable file is unaffected, which is why this is warn, not critical.
func FeedDropRate(f *journal.Feed, window int, maxDrops int64) Rule {
	if window <= 0 {
		window = 10
	}
	if maxDrops < 0 {
		maxDrops = 0
	}
	return &feedRule{feed: f, window: window, maxDrops: maxDrops, ring: make([]int64, window+1)}
}

func (r *feedRule) Name() string     { return RuleFeedDrops }
func (r *feedRule) Severity() string { return SeverityWarn }

func (r *feedRule) Eval(tns int64) Verdict {
	dropped := r.feed.Dropped()
	k := r.ticks
	n := int64(len(r.ring))
	r.ring[k%n] = dropped
	r.ticks++
	j := k - int64(r.window)
	if j < 0 {
		j = 0
	}
	r.delta = dropped - r.ring[j%n]
	return Verdict{
		Firing:    r.delta > r.maxDrops,
		Value:     float64(r.delta),
		Threshold: float64(r.maxDrops),
	}
}

func (r *feedRule) Reason() string {
	return fmt.Sprintf("%d lines dropped to slow subscribers in the last %d ticks", r.delta, r.window)
}
