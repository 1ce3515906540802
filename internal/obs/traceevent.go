package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// BufferSink is an unbounded in-memory sink: it keeps every event so a full
// run can be exported (to Chrome trace-event JSON) after the fact. For
// bounded memory use RingSink; for streaming use JSONLSink.
type BufferSink struct {
	mu  sync.Mutex
	buf []Event
}

// NewBufferSink returns an empty buffering sink.
func NewBufferSink() *BufferSink { return &BufferSink{} }

// Emit implements Sink. The buffer grows without bound by design; a solve
// without a sink never dispatches here (the nil-scope fast path allocates
// nothing, pinned by TestNilScopeZeroAllocs).
func (s *BufferSink) Emit(e Event) {
	s.mu.Lock()
	s.buf = append(s.buf, e)
	s.mu.Unlock()
}

// Events returns a copy of every buffered event in emission order.
func (s *BufferSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.buf...)
}

// teeSink fans every event out to multiple sinks.
type teeSink []Sink

func (t teeSink) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// Tee combines sinks: every emitted event reaches each of them. Nil sinks
// are skipped; Tee() of zero or one live sink collapses to that sink (or
// nil).
func Tee(sinks ...Sink) Sink {
	var live teeSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// traceEventFile is the Chrome trace-event JSON container format, loadable
// by chrome://tracing and https://ui.perfetto.dev.
type traceEventFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// traceEvent is one entry of the trace-event format: "X" complete events
// for spans and ladder rungs, "i" instants for solver iterations, "M"
// metadata for naming. Timestamps and durations are microseconds (the
// format's unit), kept fractional so nanosecond precision survives.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const tracePid = 1

// WriteTraceEvents exports trace events in Chrome trace-event JSON. Spans
// and ladder rungs become complete ("X") slices, iterations become instant
// ("i") markers, each laid out on one track per time slot (tid = slot + 1;
// track 0 carries events not scoped to a slot). Timestamps are rebased to
// the earliest event, and args maps marshal with sorted keys, so output for
// a deterministic event stream is byte-stable.
func WriteTraceEvents(w io.Writer, events []Event) error {
	var t0 int64
	first := true
	for _, e := range events {
		if e.Kind == KindSpanStart {
			continue // not exported; span_end carries the slice
		}
		start := e.TimeNS - e.DurNS // X slices begin DurNS before emission
		if first || start < t0 {
			t0, first = start, false
		}
	}
	file := traceEventFile{
		DisplayTimeUnit: "ms",
		TraceEvents: []traceEvent{{
			Name: "process_name", Ph: "M", Pid: tracePid, Tid: 0,
			Args: map[string]any{"name": "soral"},
		}},
	}
	usec := func(ns int64) float64 { return float64(ns-t0) / 1e3 }
	for _, e := range events {
		tid := e.Slot + 1
		switch e.Kind {
		case KindSpanStart:
			// The matching span_end carries the duration; emitting the start
			// too would double-draw the slice.
			continue
		case KindSpanEnd:
			te := traceEvent{
				Name: e.Name, Cat: "span", Ph: "X",
				Ts: usec(e.TimeNS - e.DurNS), Dur: float64(e.DurNS) / 1e3,
				Pid: tracePid, Tid: tid,
				Args: map[string]any{"seq": e.Seq, "iters": e.Iters},
			}
			if e.Solver != "" {
				te.Args["solver"] = e.Solver
			}
			file.TraceEvents = append(file.TraceEvents, te)
		case KindRung:
			file.TraceEvents = append(file.TraceEvents, traceEvent{
				Name: fmt.Sprintf("%s/%s", e.Name, e.Rung), Cat: "rung", Ph: "X",
				Ts: usec(e.TimeNS - e.DurNS), Dur: float64(e.DurNS) / 1e3,
				Pid: tracePid, Tid: tid,
				Args: map[string]any{"seq": e.Seq, "status": e.Status, "iters": e.Iters},
			})
		case KindIter:
			args := map[string]any{"seq": e.Seq, "iter": e.Iter}
			//sorallint:ignore floatcmp exact zero means the field was never set (JSONL omitempty round-trip), not a converged residual
			if e.Gap != 0 {
				args["gap"] = e.Gap
			}
			//sorallint:ignore floatcmp exact zero means the field was never set (JSONL omitempty round-trip), not a converged residual
			if e.Primal != 0 {
				args["primal"] = e.Primal
			}
			//sorallint:ignore floatcmp exact zero means the field was never set (JSONL omitempty round-trip), not a converged residual
			if e.Dual != 0 {
				args["dual"] = e.Dual
			}
			file.TraceEvents = append(file.TraceEvents, traceEvent{
				Name: e.Name, Cat: "iter", Ph: "i",
				Ts: usec(e.TimeNS), Pid: tracePid, Tid: tid, S: "t",
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}
