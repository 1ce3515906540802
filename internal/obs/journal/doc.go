// Package journal is the solver's flight recorder: an append-only,
// self-describing JSONL record of one run, durable beyond the process that
// produced it. Where the trace (internal/obs) answers "what did the solver
// do just now", the journal answers "why did slot t end up with this plan"
// after the fact: each line carries enough to audit the decision (input and
// decision digests, objective terms, the resilience outcome) and the header
// embeds the run configuration so the whole run can be replayed and checked
// for bit-identical decisions. A slot line's wall time and iteration count
// come from the run itself (the online step's own clock and the counts its
// solvers return), so a journal written without telemetry explains its
// slots as fully as one written with it.
//
// A journal is one header line, zero or more slot lines in strictly
// increasing slot order, and (for runs that finished) one footer line. Every
// line is a single JSON object whose "kind" field discriminates the record
// type. Field names and their order are the schema, pinned by a golden-file
// test; extend by appending fields, never by renaming or reordering. Slot
// and state lines, written once per committed slot, are encoded by hand
// (encode.go) to the same bytes encoding/json would write, and read back
// without reflection (decode.go), so a field added to SlotRecord, CostAttr
// or StateRecord must be added to both. TestRecordEncodersCoverEveryField
// and TestCanonicalDecodersCoverEveryField fail until it is; until then the
// reader sends every line carrying the field through encoding/json, which
// is correct, only slower.
//
// The package is intentionally stdlib-only and imports nothing else from
// this module, so every layer (core, control, eval, the commands, the
// exposition server) can depend on it without cycles.
package journal
