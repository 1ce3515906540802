package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// promPrefix namespaces every exposed metric; internal dotted names map to
// "soral_" plus the underscored name ("lp.mehrotra.iterations" →
// "soral_lp_mehrotra_iterations").
const promPrefix = "soral_"

// promName sanitizes an internal metric name into the Prometheus name
// charset [a-zA-Z0-9_:]; every other rune (the registry uses dots) becomes
// an underscore.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a HELP text per the Prometheus text format: backslash
// and newline.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promFloat formats a sample value; Prometheus accepts Go's shortest
// round-trip form.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// latencyHelp explains the log-bucketed histogram semantics: buckets are
// exact over the whole run, quantiles carry at most one bucket of relative
// error, and only non-empty buckets are exposed.
const latencyHelp = "log-bucketed (8 sub-buckets per octave, <=12.5% relative bucket width); counts exact over the whole run; only non-empty buckets exposed."

// WritePrometheus encodes a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters, then gauges, then latency
// histograms with cumulative buckets, _sum/_count and p50/p99/p999 gauge
// companions, each group sorted by name so the output is byte-stable for
// equal snapshots (golden-pinned by TestPrometheusGolden).
func WritePrometheus(w io.Writer, snap Snapshot) error {
	for _, name := range sortedKeys(snap.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Counter %s.\n# TYPE %s counter\n%s %d\n",
			pn, promEscape(name), pn, pn, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Gauge %s.\n# TYPE %s gauge\n%s %s\n",
			pn, promEscape(name), pn, pn, promFloat(snap.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Latencies) {
		l := snap.Latencies[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Latency histogram %s: %s\n# TYPE %s histogram\n",
			pn, promEscape(name), promEscape(latencyHelp), pn); err != nil {
			return err
		}
		wroteInf := false
		for _, b := range l.Buckets {
			le := promFloat(b.Upper)
			if math.IsInf(b.Upper, 1) {
				le = "+Inf"
				wroteInf = true
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, le, b.CumCount); err != nil {
				return err
			}
		}
		if !wroteInf {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, l.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
			pn, promFloat(l.Sum), pn, l.Count); err != nil {
			return err
		}
		for _, q := range [...]struct {
			suffix string
			v      float64
		}{{"p50", l.P50}, {"p99", l.P99}, {"p999", l.P999}} {
			if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %s\n",
				pn, q.suffix, pn, q.suffix, promFloat(q.v)); err != nil {
				return err
			}
		}
	}
	return nil
}
