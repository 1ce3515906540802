package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"

	"soral/internal/linalg"
)

// Bench is the one BENCH_<name>.json schema every experiment writes: the
// machine envelope the snapshot was recorded under, then one named entry per
// measured configuration. -compare pairs two snapshots by entry name.
type Bench struct {
	BenchEnv
	Results []BenchEntry `json:"results"`
}

// BenchEntry is one named benchmark. Every number in Metrics is a
// regression axis for -compare: bigger is worse, except metrics whose name
// starts with "speedup". Info carries the numbers recorded for the reader
// (seeds, horizons, sample counts, adaptive loop counts, gauges where
// bigger is better) that -compare never scores.
type BenchEntry struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
	Info    map[string]float64 `json:"info,omitempty"`
	// BitIdentical is set on entries that carry a determinism verdict
	// (serial-vs-parallel for kernels, recovered-vs-uninterrupted for chaos,
	// run-to-run for warmstart and watch); a true → false flip regresses
	// unconditionally.
	BitIdentical *bool `json:"bit_identical,omitempty"`
}

// BenchEnv is the machine envelope a BENCH snapshot was recorded under.
// Latency quantiles and kernel speedups shift with the core count, so
// -compare warns (never fails) when two snapshots disagree here.
type BenchEnv struct {
	Cores      int `json:"cores"`
	GoMaxProcs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
}

// HostEnv is the envelope of the running process.
func HostEnv() BenchEnv {
	return BenchEnv{Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: linalg.ResolveWorkers(0)}
}

// Comparable reports whether the two envelopes describe the same parallel
// envelope; an unrecorded envelope (zero Cores) is never flagged.
func (e BenchEnv) Comparable(o BenchEnv) bool {
	if e.Cores == 0 || o.Cores == 0 {
		return true
	}
	return e.Cores == o.Cores && e.GoMaxProcs == o.GoMaxProcs
}

// LoadBenchEnv parses one BENCH_<name>.json file into the entry list
// Compare consumes and the machine envelope the snapshot was recorded
// under. A file without named results (such as one written before the
// schema was unified) is an error.
func LoadBenchEnv(r io.Reader) ([]BenchEntry, BenchEnv, error) {
	var b Bench
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, BenchEnv{}, fmt.Errorf("eval: parsing bench file: %w", err)
	}
	if len(b.Results) == 0 {
		return nil, BenchEnv{}, fmt.Errorf("eval: bench file has no results[].name entries")
	}
	for i, e := range b.Results {
		if e.Name == "" {
			return nil, BenchEnv{}, fmt.Errorf("eval: bench file results[%d].name is missing", i)
		}
	}
	return b.Results, b.BenchEnv, nil
}

// CompareOptions tunes the regression verdict.
type CompareOptions struct {
	// Threshold is τ, the relative worsening that flags a single metric
	// (default 0.20 = 20% worse). The family rules use τ/2 so a consistent
	// drift across many entries fails before any one entry does.
	Threshold float64
	// Alpha is the sign-test significance level (default 0.05).
	Alpha float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.Threshold <= 0 {
		o.Threshold = 0.20
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	return o
}

// MetricDelta is one paired measurement: how much worse (positive) or
// better (negative) the new snapshot is on one metric of one entry,
// normalized so +0.5 always means "50% worse" whatever the metric's
// direction.
type MetricDelta struct {
	Entry     string
	Metric    string
	Old, New  float64
	Delta     float64 // relative worsening; positive is worse
	Regressed bool    // Delta ≥ τ
}

// FamilyVerdict aggregates one metric family (all entries' deltas on the
// same metric name) through the significance rules.
type FamilyVerdict struct {
	Metric    string
	N         int     // paired entries
	Worse     int     // entries with Delta > 0
	Median    float64 // median delta
	Min       float64 // smallest delta (the most favorable entry)
	SignP     float64 // exact binomial tail P(X ≥ Worse | N, ½)
	Rule      string  // which rule fired: "" (pass), sign-test, min-of-k, threshold
	Regressed bool
}

// BenchDiff is the full comparison of two bench snapshots.
type BenchDiff struct {
	Opts     CompareOptions
	Deltas   []MetricDelta
	Families []FamilyVerdict
	// BitBreaks lists entries whose bit_identical verdict flipped true →
	// false: an unconditional regression (the determinism contract broke).
	BitBreaks []string
	// OnlyOld and OnlyNew list entry names present in one snapshot only
	// (renames and coverage changes; reported, never a regression).
	OnlyOld, OnlyNew []string
	// Added summarizes OnlyNew by entry family (the name's first
	// "/"-segment), so coverage that did not exist in the old baseline —
	// e.g. a whole new warmstart/* benchmark — shows up in the summary as
	// "added" instead of silently pairing with nothing.
	Added []AddedFamily
}

// AddedFamily is one family of entries present only in the new snapshot.
type AddedFamily struct {
	Family string
	N      int
}

// Regressed reports whether the comparison should fail the build: any
// bit-identity break, or any metric family flagged by the significance
// rules.
func (d *BenchDiff) Regressed() bool {
	if len(d.BitBreaks) > 0 {
		return true
	}
	for _, f := range d.Families {
		if f.Regressed {
			return true
		}
	}
	return false
}

// metricWorsening converts an old/new pair into a signed relative
// worsening. For almost every metric (times, iteration counts) bigger is
// worse; metrics named "speedup…" are the higher-is-better exception.
// The second return is false when the pair carries no information (old
// value too small to normalize against).
func metricWorsening(metric string, oldV, newV float64) (float64, bool) {
	const tiny = 1e-12
	if math.Abs(oldV) < tiny {
		return 0, math.Abs(newV) < tiny // both ~zero: a zero delta; else unscorable
	}
	d := (newV - oldV) / math.Abs(oldV)
	if strings.HasPrefix(metric, "speedup") {
		d = -d
	}
	return d, true
}

// Compare pairs two snapshots by entry name and runs every shared metric
// (never an Info number) through the regression rules. A family (one metric across all paired
// entries) regresses when:
//
//   - sign test: N ≥ 3, the exact binomial tail P(X ≥ worse | N, ½) ≤ α,
//     and the median worsening ≥ τ/2 — many entries drifted the wrong way;
//   - min-of-K: N ≥ 3 and even the most favorable entry worsened by ≥ τ/2
//     — a uniform slowdown too consistent to be noise; or
//   - threshold: N < 3 and every delta ≥ τ — with too few pairs for
//     statistics, only a full-threshold worsening fails.
//
// A kernel cell whose bit_identical flipped true → false regresses
// unconditionally, whatever the timings say.
func Compare(oldE, newE []BenchEntry, opts CompareOptions) *BenchDiff {
	opts = opts.withDefaults()
	d := &BenchDiff{Opts: opts}

	newByName := make(map[string]BenchEntry, len(newE))
	for _, e := range newE {
		newByName[e.Name] = e
	}
	oldSeen := make(map[string]bool, len(oldE))

	byFamily := map[string][]float64{}
	for _, oe := range oldE {
		oldSeen[oe.Name] = true
		ne, ok := newByName[oe.Name]
		if !ok {
			d.OnlyOld = append(d.OnlyOld, oe.Name)
			continue
		}
		if oe.BitIdentical != nil && ne.BitIdentical != nil && *oe.BitIdentical && !*ne.BitIdentical {
			d.BitBreaks = append(d.BitBreaks, oe.Name)
		}
		metrics := make([]string, 0, len(oe.Metrics))
		for metric := range oe.Metrics {
			metrics = append(metrics, metric)
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			ov := oe.Metrics[metric]
			nv, ok := ne.Metrics[metric]
			if !ok {
				continue
			}
			delta, scorable := metricWorsening(metric, ov, nv)
			if !scorable {
				continue
			}
			d.Deltas = append(d.Deltas, MetricDelta{
				Entry: oe.Name, Metric: metric, Old: ov, New: nv,
				Delta: delta, Regressed: delta >= opts.Threshold,
			})
			byFamily[metric] = append(byFamily[metric], delta)
		}
	}
	for _, e := range newE {
		if !oldSeen[e.Name] {
			d.OnlyNew = append(d.OnlyNew, e.Name)
		}
	}
	sort.Slice(d.Deltas, func(a, b int) bool {
		if d.Deltas[a].Metric != d.Deltas[b].Metric {
			return d.Deltas[a].Metric < d.Deltas[b].Metric
		}
		return d.Deltas[a].Entry < d.Deltas[b].Entry
	})
	sort.Strings(d.OnlyOld)
	sort.Strings(d.OnlyNew)
	sort.Strings(d.BitBreaks)
	addedN := map[string]int{}
	for _, name := range d.OnlyNew {
		fam := name
		if i := strings.Index(name, "/"); i >= 0 {
			fam = name[:i]
		}
		addedN[fam]++
	}
	addedFams := make([]string, 0, len(addedN))
	for fam := range addedN {
		addedFams = append(addedFams, fam)
	}
	sort.Strings(addedFams)
	for _, fam := range addedFams {
		d.Added = append(d.Added, AddedFamily{Family: fam, N: addedN[fam]})
	}

	families := make([]string, 0, len(byFamily))
	for m := range byFamily {
		families = append(families, m)
	}
	sort.Strings(families)
	for _, metric := range families {
		deltas := byFamily[metric]
		v := FamilyVerdict{Metric: metric, N: len(deltas)}
		sorted := append([]float64(nil), deltas...)
		sort.Float64s(sorted)
		v.Min = sorted[0]
		if n := len(sorted); n%2 == 1 {
			v.Median = sorted[n/2]
		} else {
			v.Median = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		for _, x := range deltas {
			if x > 0 {
				v.Worse++
			}
		}
		v.SignP = binomTail(v.N, v.Worse)
		half := opts.Threshold / 2
		switch {
		case v.N >= 3 && v.SignP <= opts.Alpha && v.Median >= half:
			v.Rule, v.Regressed = "sign-test", true
		case v.N >= 3 && v.Min >= half:
			v.Rule, v.Regressed = "min-of-k", true
		case v.N < 3 && v.N > 0 && v.Min >= opts.Threshold:
			v.Rule, v.Regressed = "threshold", true
		}
		d.Families = append(d.Families, v)
	}
	return d
}

// binomTail is the exact one-sided sign-test p-value: the probability of w
// or more successes in n fair coin flips.
func binomTail(n, w int) float64 {
	if w <= 0 {
		return 1
	}
	// C(n,k)·2⁻ⁿ accumulated from k = w to n, built incrementally to stay
	// in range for any realistic n.
	p := 0.0
	coef := 1.0 // C(n, k) · 2⁻ⁿ for k = 0
	for i := 0; i < n; i++ {
		coef /= 2
	}
	for k := 0; k <= n; k++ {
		if k >= w {
			p += coef
		}
		coef = coef * float64(n-k) / float64(k+1)
	}
	if p > 1 {
		p = 1
	}
	return p
}

// WriteText renders the diff as an aligned report: one line per family with
// its verdict, then every per-entry delta past the threshold, then the
// bookkeeping (bit breaks, unpaired entries).
func (d *BenchDiff) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "bench compare: τ=%.2f α=%.2f\n", d.Opts.Threshold, d.Opts.Alpha)
	for _, f := range d.Families {
		verdict := "ok"
		if f.Regressed {
			verdict = "REGRESSED (" + f.Rule + ")"
		}
		fmt.Fprintf(&b, "  %-28s n=%-3d worse=%-3d median=%+.1f%% min=%+.1f%% p=%.3f  %s\n",
			f.Metric, f.N, f.Worse, 100*f.Median, 100*f.Min, f.SignP, verdict)
	}
	for _, bb := range d.BitBreaks {
		fmt.Fprintf(&b, "  BIT-IDENTITY BROKEN: %s (was bit_identical, now not)\n", bb)
	}
	for _, md := range d.Deltas {
		if md.Regressed {
			fmt.Fprintf(&b, "  worse ≥ τ: %s %s %.4g → %.4g (%+.1f%%)\n",
				md.Entry, md.Metric, md.Old, md.New, 100*md.Delta)
		}
	}
	if len(d.OnlyOld) > 0 {
		fmt.Fprintf(&b, "  only in old: %s\n", strings.Join(d.OnlyOld, ", "))
	}
	for _, a := range d.Added {
		fmt.Fprintf(&b, "  added: %s (%d entries)\n", a.Family, a.N)
	}
	if len(d.OnlyNew) > 0 {
		fmt.Fprintf(&b, "  only in new: %s\n", strings.Join(d.OnlyNew, ", "))
	}
	if d.Regressed() {
		fmt.Fprintf(&b, "verdict: REGRESSED\n")
	} else {
		fmt.Fprintf(&b, "verdict: ok\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
