package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event kinds.
const (
	// KindSpanStart opens a named span (e.g. one online slot, one control
	// horizon).
	KindSpanStart = "span_start"
	// KindSpanEnd closes a span, carrying its duration and the number of
	// solver iterations it consumed.
	KindSpanEnd = "span_end"
	// KindIter is one solver iteration (Mehrotra, barrier Newton) with its
	// convergence measures.
	KindIter = "iter"
	// KindRung records one fallback-ladder rung attempt and its outcome.
	KindRung = "rung"
)

// Event is one trace record. Field names and their declaration order are the
// JSONL schema — both are pinned by a golden-file test; extend by appending
// fields, never by renaming or reordering.
type Event struct {
	// Seq is a process-unique, strictly increasing sequence number (shared
	// across all scopes derived from one NewScope call).
	Seq int64 `json:"seq"`
	// TimeNS is the wall-clock emission time in Unix nanoseconds.
	TimeNS int64 `json:"t_ns"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Name identifies the emitting site: a solver stage for iter events
	// ("lp.mehrotra", "convex.newton"), the ladder stage
	// for rung events, the span name otherwise.
	Name string `json:"name"`
	// Solver is the high-level solver/algorithm identity inherited from
	// Scope.Solver (e.g. "online", "offline", "rfhc").
	Solver string `json:"solver,omitempty"`
	// Slot is the time-slot index inherited from Scope.Slot; -1 when the
	// event is not slot-scoped.
	Slot int `json:"slot"`
	// Iter is the iteration number within the emitting solve.
	Iter int `json:"iter,omitempty"`
	// Iters is an aggregate iteration count (span_end and rung events).
	Iters int `json:"iters,omitempty"`
	// Stage is the outer stage of a nested iteration (barrier stage for
	// convex.newton events).
	Stage int `json:"stage,omitempty"`
	// Rung names the ladder rung of a rung event.
	Rung string `json:"rung,omitempty"`
	// Status is "ok" or the failure class of a rung event.
	Status string `json:"status,omitempty"`
	// DurNS is the duration in nanoseconds (span_end and rung events).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Primal, Dual, Gap are the normalized residuals of an iter event.
	Primal float64 `json:"primal,omitempty"`
	Dual   float64 `json:"dual,omitempty"`
	Gap    float64 `json:"gap,omitempty"`
	// Decrement is the squared Newton decrement of a barrier iteration.
	Decrement float64 `json:"decrement,omitempty"`
	// Step is the accepted line-search step size of an iteration.
	Step float64 `json:"step,omitempty"`
	// Trials is the number of line-search trials a barrier iteration
	// evaluated, not counting the steps skipped as infeasible.
	Trials int `json:"trials,omitempty"`
}

// Sink receives trace events. Implementations must be safe for concurrent
// use: the parallel kernels and the LCP-M prefix solves emit from many
// goroutines.
type Sink interface {
	Emit(Event)
}

// RingSink is a bounded in-memory sink for tests: it keeps the most recent
// capacity events and counts the total ever emitted.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	cap   int
	total int64
}

// NewRingSink returns a ring sink holding up to capacity events (a default
// of 4096 when capacity <= 0).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 4096
	}
	return &RingSink{cap: capacity}
}

// Emit implements Sink.
func (s *RingSink) Emit(e Event) {
	s.mu.Lock()
	s.total++
	if len(s.buf) < s.cap {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next] = e
		s.next = (s.next + 1) % s.cap
	}
	s.mu.Unlock()
}

// Events returns the buffered events in emission order.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Total returns the number of events ever emitted (including overwritten
// ones).
func (s *RingSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// JSONLSink writes one JSON object per line to an io.Writer. The first write
// error is latched and all subsequent events are dropped; check Err after
// the run.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps w in a line-delimited JSON sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
	s.mu.Unlock()
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
