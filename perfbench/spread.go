package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// runSpread reruns the workload n times in fresh processes with seeds
// seed, seed+1, ..., seed+n-1, then once more with the first seed, whose
// decision digest must repeat. It prints each metric's median, quartiles,
// range, and the interquartile distance as a share of the median: the
// figure a metric's bound must stay well above.
func runSpread(cfg config, n int, stdout, stderr io.Writer) error {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var firstDigest string
	for i := 0; i <= n; i++ {
		seed := cfg.seed + int64(i)
		if i == n {
			seed = cfg.seed
		}
		out, err := runSelf(stderr, "--workload", cfg.w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if len(lines) < 2 {
			return fmt.Errorf("run %d (seed %d): no result", i+1, seed)
		}
		var info runInfo
		var res result
		if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		fmt.Fprintf(stdout, "run %d seed %d: %s\n", i+1, seed, lines[len(lines)-1])
		switch {
		case i == 0:
			firstDigest = info.Digest
			fmt.Fprintf(stdout, "envelope: %s\n", lines[len(lines)-2])
		case i == n:
			if info.Digest != firstDigest {
				return fmt.Errorf("seed %d decided differently on a rerun: digest %s, then %s", seed, firstDigest, info.Digest)
			}
			fmt.Fprintf(stdout, "seed %d rerun repeated decision digest %s\n", seed, info.Digest)
			continue
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\tmedian\tq1\tq3\tmin\tmax\tiqr/median\t\n")
	for _, name := range names {
		xs := append([]float64(nil), values[name]...)
		sort.Float64s(xs)
		q1, q2, q3 := quartiles(xs)
		rel := math.NaN()
		if q2 != 0 {
			rel = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.4f\t\n",
			name, units[name], q2, q1, q3, xs[0], xs[len(xs)-1], rel)
	}
	return tw.Flush()
}

// quartiles are the three cut points of sorted xs by the "exclusive"
// method, as Python's statistics.quantiles(xs, n=4) gives them.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
