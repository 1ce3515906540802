// Package obs is the solver stack's telemetry layer: a concurrency-safe
// metrics registry (counters, gauges, log-bucketed latency histograms with
// whole-run p50/p99/p999), a span/event tracer with pluggable sinks (an in-memory ring
// buffer for tests, a JSONL writer for offline analysis), and runtime/pprof
// label propagation so CPU profiles attribute samples to solver phases
// (phase=p2-barrier, phase=lp-mehrotra, phase=repair).
//
// Everything hangs off a *Scope threaded through the solver Options structs
// (lp, convex, core, control). A nil *Scope is the disabled state and
// is always safe to call: every method is a cheap branch-and-return, with
// zero allocations on the disabled path (verified by BenchmarkNilScope and
// TestNilScopeZeroAllocs). Instrumented code therefore never guards its
// telemetry calls.
//
// Scopes are cheap immutable views over a shared core (registry + sink +
// clock + sequence counter): Solver and Slot derive labeled child scopes so
// every emitted event carries the solver identity and slot index of its
// origin. The event schema (stable field names and ordering, pinned by a
// golden-file test) is documented in DESIGN.md §6.
//
// The package depends only on the standard library.
package obs
