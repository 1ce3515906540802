// Package watch is the self-monitoring rule engine: a fixed set of
// detectors evaluated once per watchdog tick against the live registry and
// the sources it mirrors, each grounded in an invariant the repo can certify
// (the 1+2/ε competitive-ratio certificate, the SLO error budget, the
// warm-start baseline, the resilience budget, the feed's drop accounting)
// rather than in free-floating thresholds.
//
// Alerts are first-class run artifacts: every firing/resolved transition is
// appended to the soral-journal as a CRC'd alert record, mirrored into the
// watch.alerts.{firing,fired,resolved} metric family, retained for the
// /alerts endpoint, and delivered to the OnAlert hook — which cmd/soral
// wires to stderr, and for the critical class to Health.Fail so /healthz
// turns 503 before hard failure instead of after.
package watch

import (
	"fmt"
	"sort"
	"sync"

	"soral/internal/obs"
	"soral/internal/obs/journal"
)

// Alert states and severities, re-exported from the journal schema (the
// journal reader validates alert records against exactly these).
const (
	StateFiring   = journal.AlertFiring
	StateResolved = journal.AlertResolved

	SeverityWarn     = journal.SeverityWarn
	SeverityCritical = journal.SeverityCritical
)

// Metric names of the alert family.
const (
	// MetricAlertsFiring gauges the number of currently-firing rules.
	MetricAlertsFiring = "watch.alerts.firing"
	// MetricAlertsFired counts firing transitions over the run.
	MetricAlertsFired = "watch.alerts.fired"
	// MetricAlertsResolved counts resolved transitions over the run.
	MetricAlertsResolved = "watch.alerts.resolved"
)

// Alert is one rule transition: a rule started firing or resolved.
type Alert struct {
	Rule      string  `json:"rule"`
	Severity  string  `json:"severity"`
	State     string  `json:"state"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Reason    string  `json:"reason,omitempty"`
	TNS       int64   `json:"t_ns"`
}

func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s %s: value %.6g vs threshold %.6g%s",
		a.Severity, a.Rule, a.State, a.Value, a.Threshold, reasonSuffix(a.Reason))
}

func reasonSuffix(r string) string {
	if r == "" {
		return ""
	}
	return " (" + r + ")"
}

// Verdict is one rule evaluation at one tick.
type Verdict struct {
	Firing           bool
	Value, Threshold float64
}

// Rule is one detector. Eval runs on the watchdog's goroutine once per tick
// with the tick's Unix-nanosecond timestamp; implementations keep their own
// windows and baselines and must be deterministic given their inputs.
// Reason explains the latest Eval's verdict in a sentence; the engine asks
// for it only on a transition, so a steady tick formats nothing.
type Rule interface {
	Name() string
	Severity() string
	Eval(tns int64) Verdict
	Reason() string
}

// historyCap bounds the retained alert history served by /alerts.
const historyCap = 256

// Engine evaluates rules each tick and manages alert lifecycle: a rule's
// verdict turning true emits one firing alert, turning false afterwards
// emits one resolved alert; steady states emit nothing. Safe for concurrent
// Status readers against the evaluating goroutine.
type Engine struct {
	mu      sync.Mutex
	rules   []Rule
	active  map[string]Alert // currently firing, by rule name
	history []Alert          // ring of the most recent transitions
	next    int              // ring cursor once history is full
	onAlert func(Alert)
	jw      *journal.Writer
	reg     *obs.Registry
}

// New returns an engine with no rules.
func New() *Engine {
	return &Engine{active: map[string]Alert{}}
}

// AddRule appends detectors (nil rules are skipped). Returns the engine for
// chaining; call before the first Eval.
func (e *Engine) AddRule(rules ...Rule) *Engine {
	for _, r := range rules {
		if r != nil {
			e.rules = append(e.rules, r)
		}
	}
	return e
}

// OnAlert installs the transition hook, invoked outside the engine lock on
// the evaluating goroutine once per firing/resolved transition.
func (e *Engine) OnAlert(fn func(Alert)) *Engine {
	e.onAlert = fn
	return e
}

// Journal attaches the run's journal writer: every transition appends one
// alert record (nil detaches).
func (e *Engine) Journal(w *journal.Writer) *Engine {
	e.jw = w
	return e
}

// Metrics attaches the registry carrying the watch.alerts.* family.
func (e *Engine) Metrics(reg *obs.Registry) *Engine {
	e.reg = reg
	return e
}

// Rules returns the number of installed detectors.
func (e *Engine) Rules() int { return len(e.rules) }

// Eval runs every rule against the tick at tns: soral -watch calls it once a
// second, right after collecting the Go runtime gauges into the registry.
func (e *Engine) Eval(tns int64) {
	e.mu.Lock()
	var out []Alert
	for _, r := range e.rules {
		v := r.Eval(tns)
		name := r.Name()
		_, firing := e.active[name]
		switch {
		case v.Firing && !firing:
			a := Alert{
				Rule: name, Severity: r.Severity(), State: StateFiring,
				Value: v.Value, Threshold: v.Threshold, Reason: r.Reason(), TNS: tns,
			}
			e.active[name] = a
			e.record(a)
			out = append(out, a)
			if e.reg != nil {
				e.reg.Add(MetricAlertsFired, 1)
			}
		case !v.Firing && firing:
			a := Alert{
				Rule: name, Severity: r.Severity(), State: StateResolved,
				Value: v.Value, Threshold: v.Threshold, Reason: r.Reason(), TNS: tns,
			}
			delete(e.active, name)
			e.record(a)
			out = append(out, a)
			if e.reg != nil {
				e.reg.Add(MetricAlertsResolved, 1)
			}
		}
	}
	if e.reg != nil {
		e.reg.SetGauge(MetricAlertsFiring, float64(len(e.active)))
	}
	jw, onAlert := e.jw, e.onAlert
	e.mu.Unlock()
	// Journal writes and the hook can block (fsync, stderr); emit them
	// outside the lock so Status readers never wait on I/O. Eval runs on the
	// single watchdog goroutine, so transition order is still the rule order.
	for _, a := range out {
		jw.Alert(journal.AlertRecord{
			Rule: a.Rule, Severity: a.Severity, State: a.State,
			Value: a.Value, Threshold: a.Threshold, Reason: a.Reason,
		})
		if onAlert != nil {
			onAlert(a)
		}
	}
}

// record appends one transition to the retained history. Caller holds e.mu.
func (e *Engine) record(a Alert) {
	if len(e.history) < historyCap {
		e.history = append(e.history, a)
	} else {
		e.history[e.next] = a
		e.next = (e.next + 1) % historyCap
	}
}

// Status is the /alerts JSON body: currently-firing alerts (sorted by rule
// name) and the retained transition history, oldest first.
type Status struct {
	Firing  []Alert `json:"firing"`
	History []Alert `json:"history"`
}

// Status snapshots the engine.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{Firing: []Alert{}, History: []Alert{}}
	names := make([]string, 0, len(e.active))
	for name := range e.active {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Firing = append(st.Firing, e.active[name])
	}
	st.History = append(st.History, e.history[e.next:]...)
	st.History = append(st.History, e.history[:e.next]...)
	return st
}
