package a

import "obs"

// wellNamed uses the accepted shape: lowercase segments joined by dots and
// underscores.
func wellNamed(r *obs.Registry, s *obs.Scope) {
	r.Add("solver.iterations", 1)
	r.SetGauge("attr.competitive_ratio", 1.02)
	r.RecordLatency("latency.convex.newton.seconds", 0.5)
	s.RecordLatency("latency.core.slot.seconds", 0.5)
	s.Count("ladder.rung_failures", 1)
}

// badCasing trips the charset rule in its several ways.
func badCasing(r *obs.Registry) {
	r.Add("Solver.Iterations", 1)          // want `metricname: metric name "Solver.Iterations" is not lowercase dotted snake_case`
	r.SetGauge("attr-cum-cost", 1)         // want `metricname: metric name "attr-cum-cost" is not lowercase dotted snake_case`
	r.RecordLatency("latency..seconds", 1) // want `metricname: metric name "latency..seconds" is not lowercase dotted snake_case`
	r.RecordLatency("9lives", 1)           // want `metricname: metric name "9lives" is not lowercase dotted snake_case`
	r.Add("solver iterations", 1)          // want `metricname: metric name "solver iterations" is not lowercase dotted snake_case`
}

// constName is folded like a literal; dynamic names are out of scope.
const constName = "feed.dropped_lines"

func foldedAndDynamic(r *obs.Registry, which string) {
	r.Add(constName, 1)
	r.Add("prefix."+which, 1) // runtime-built: not judged
}

// kindClash reuses one name across metric kinds: the first registration
// wins, every later kind is flagged.
func kindClash(r *obs.Registry, s *obs.Scope) {
	r.Add("journal.commits", 1)
	r.SetGauge("journal.commits", 3)        // want `metricname: metric "journal.commits" used as a gauge here but first registered as a counter`
	s.RecordLatency("journal.commits", 0.1) // want `metricname: metric "journal.commits" used as a latency here but first registered as a counter`
	s.CounterValue("journal.commits")       // same kind as the first registration: fine
	r.RecordLatency("solve.duration.seconds", 0.2)
	r.RecordLatency("solve.duration.seconds", 0.3) // same kind again: fine
}
