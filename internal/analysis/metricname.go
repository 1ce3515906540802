package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// metricNameRe is the accepted shape: lowercase dotted snake_case, each
// dot- or underscore-separated segment alphanumeric, starting with a letter
// ("solver.iterations", "journal.feed.dropped_lines"). The Prometheus
// exposition derives its sanitized names from these, so one casing
// convention at the source keeps the scraped families predictable.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*([._][a-z0-9]+)*$`)

// metricKinds maps each obs metric-recording (or reading) method to the
// kind of series its name argument selects. A name reused across kinds
// would collide in the exposition (a counter and a latency histogram would
// both claim "<name>"'s TYPE line), so one name must keep one kind.
var metricKinds = map[string]string{
	"Add":           "counter",
	"Count":         "counter",
	"Counter":       "counter",
	"CounterValue":  "counter",
	"SetCounter":    "counter",
	"SetGauge":      "gauge",
	"RecordLatency": "latency",
	"LatencyHist":   "latency",
}

// MetricName enforces the telemetry naming contract on every constant metric
// name passed to the obs.Registry / obs.Scope recording methods: names are
// lowercase dotted snake_case, and a name is registered as exactly one
// metric kind (counter, gauge, latency) per package. Names built
// at runtime (e.g. "latency."+name+".seconds") are out of scope — the
// analyzer only judges what it can constant-fold.
var MetricName = &Analyzer{
	Name:      "metricname",
	Doc:       "metric names must be lowercase dotted snake_case and keep a single metric kind per name",
	SkipTests: true,
	Run:       runMetricName,
}

func runMetricName(pass *Pass) {
	info := pass.Info()
	seen := map[string]string{} // constant metric name -> kind first seen
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			kind, ok := metricKinds[fn.Name()]
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			recv := sig.Recv().Type()
			if !isNamed(recv, "obs", "Registry") && !isNamed(recv, "obs", "Scope") {
				return true
			}
			tv, ok := info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true // runtime-built name: out of scope
			}
			name := constant.StringVal(tv.Value)
			if !metricNameRe.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q is not lowercase dotted snake_case (want %s)", name, metricNameRe)
			}
			if prev, dup := seen[name]; dup && prev != kind {
				pass.Reportf(call.Args[0].Pos(),
					"metric %q used as a %s here but first registered as a %s; one name must keep one metric kind", name, kind, prev)
			} else if !dup {
				seen[name] = kind
			}
			return true
		})
	}
}
