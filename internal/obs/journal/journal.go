package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Record kinds (the "kind" field of every journal line).
const (
	// KindHeader opens a journal: one per run, always the first line.
	KindHeader = "header"
	// KindSlot records one committed time-slot decision.
	KindSlot = "slot"
	// KindState checkpoints the run's restartable state (the committed
	// decision vectors) so a crashed run can resume without re-solving its
	// whole prefix. Always written after the slot record it checkpoints.
	KindState = "state"
	// KindFooter closes a journal: one per finished run, always the last
	// line. A journal without a footer records a run that died mid-flight.
	KindFooter = "footer"
	// KindAlert records a watchdog rule transition (firing or resolved) —
	// the post-mortem trail of the self-monitoring layer. Alert records may
	// appear anywhere between header and footer and do not participate in
	// the footer's slot reconciliation.
	KindAlert = "alert"
)

// Version is the journal schema version written into every header. Readers
// accept only versions they know; bump it on any breaking schema change.
// Version 2 added the per-record crc field and state records; version-1
// journals are still readable (their records carry no checksums to verify).
const Version = 2

// Slot statuses, mirroring core's SlotStatus taxonomy.
const (
	StatusOK        = "ok"
	StatusRecovered = "recovered"
	StatusDegraded  = "degraded"
)

// Alert states and severities (the taxonomy of obs/watch, pinned here so the
// reader can validate records without importing the rule engine).
const (
	AlertFiring   = "firing"
	AlertResolved = "resolved"

	SeverityWarn     = "warn"
	SeverityCritical = "critical"
)

// Header is the run preamble: everything needed to attribute and replay the
// run. Field names and order are the schema (golden-pinned).
type Header struct {
	Kind    string `json:"kind"` // always KindHeader
	Version int    `json:"v"`
	// Algorithm is the run's algorithm identity (online, offline, rfhc, ...).
	Algorithm string `json:"algorithm"`
	// ConfigDigest is DigestBytes of the canonical Config JSON ("" when no
	// config was embedded).
	ConfigDigest string `json:"config_digest,omitempty"`
	// Config is the canonical run configuration (eval.RunConfig JSON). A
	// journal without it is auditable but not replayable.
	Config json.RawMessage `json:"config,omitempty"`
	// Seed is the scenario seed (0 when unknown, e.g. external instances).
	Seed int64 `json:"seed,omitempty"`
	// GoMaxProcs and Workers pin the parallel envelope of the run. The
	// decision digests must nevertheless be independent of both (the
	// determinism contract of DESIGN.md §8) — replay verifies exactly that.
	GoMaxProcs int `json:"gomaxprocs"`
	Workers    int `json:"workers"`
	// Solver names the solver build whose arithmetic the decisions depend
	// on (core.SolverID for runs that solve P2). Replay of a journal from a
	// different solver reports that, not a per-slot divergence. Empty on
	// journals that predate it and on runs that never solve P2.
	Solver string `json:"solver,omitempty"`
	// TimeNS is the wall-clock start time in Unix nanoseconds.
	TimeNS int64 `json:"t_ns"`
	// CRC is the record checksum ("crc32c:" + 8 hex digits), computed over
	// the marshaled record without this field. Always the last JSON key; the
	// writer stamps it and the reader verifies it (version ≥ 2).
	CRC string `json:"crc,omitempty"`
}

// SlotRecord is one committed slot: the audit trail for "why this plan".
type SlotRecord struct {
	Kind string `json:"kind"` // always KindSlot
	Slot int    `json:"slot"`
	// InputsDigest fingerprints the realized slot inputs (workload row and
	// operating-price row) and DecisionDigest the committed decision vector
	// (X, Y, Z float64 bit patterns); see Digest.
	InputsDigest   string `json:"inputs_digest"`
	DecisionDigest string `json:"decision_digest"`
	// AllocCost and ReconfCost are the slot's objective terms: operating
	// (allocation) cost and reconfiguration cost charged at commit.
	AllocCost  float64 `json:"alloc_cost"`
	ReconfCost float64 `json:"reconf_cost"`
	// Status is ok|recovered|degraded; Rung names the fallback-ladder rung
	// or degradation tactic that produced the decision (empty for a clean
	// primary solve).
	Status string `json:"status"`
	Rung   string `json:"rung,omitempty"`
	// DurNS is the slot's wall time, the same measurement the trace's
	// core.slot span carries (zero only in a post-hoc record), and Iters the
	// solver iterations it ran as the solvers reported them (zero on a
	// decision-cache hit or a post-hoc record). Neither needs an obs scope.
	DurNS int64 `json:"dur_ns,omitempty"`
	Iters int   `json:"iters,omitempty"`
	// Warm marks a slot committed by the warm-start machinery (a carried
	// primal iterate or a decision-cache hit); false/omitted for cold solves,
	// so journals recorded with WarmStart off stay byte-identical to journals
	// from before the field existed.
	Warm bool `json:"warm,omitempty"`
	// Attr is the slot's cost attribution (nil in journals recorded before
	// the field existed — a compatible soral-journal/2 extension; the crc
	// field stays the last JSON key).
	Attr *CostAttr `json:"attr,omitempty"`
	// TimeNS is the record's wall-clock emission time in Unix nanoseconds.
	TimeNS int64 `json:"t_ns"`
	// CRC is the record checksum; see Header.CRC.
	CRC string `json:"crc,omitempty"`
}

// CostAttr decomposes one slot's objective contribution. The six named
// components sum to AllocCost + ReconfCost, and the per-cloud vectors are
// an exact partition of the same total (within float round-trip, which JSON
// preserves bit-exactly) — `soral -replay` asserts both reconciliations.
type CostAttr struct {
	// The paper's six objective components: tier-2 compute (F2), network
	// (F12), and tier-1 compute (F1), split into allocation (operating) and
	// reconfiguration (smoothing/switching) charges.
	AllocT2   float64 `json:"alloc_t2"`
	AllocNet  float64 `json:"alloc_net"`
	AllocT1   float64 `json:"alloc_t1,omitempty"`
	ReconfT2  float64 `json:"reconf_t2"`
	ReconfNet float64 `json:"reconf_net"`
	ReconfT1  float64 `json:"reconf_t1,omitempty"`
	// PerTier2[i] / PerTier1[j] attribute the same total to individual
	// tier-2 clouds and tier-1 client groups (see obs/attr for the split
	// convention).
	PerTier2 []float64 `json:"per_tier2,omitempty"`
	PerTier1 []float64 `json:"per_tier1,omitempty"`
	// Slack is the committed decision's worst constraint violation (0 when
	// feasible).
	Slack float64 `json:"slack,omitempty"`
	// OperLB is the slot's capacity-ignoring operating-cost lower bound;
	// its running sum floors the offline optimum, making regret and
	// competitive-ratio estimates recomputable from the journal alone.
	OperLB float64 `json:"oper_lb,omitempty"`
	// WarmIters is the Newton-iteration count of the warm-carried solve that
	// committed this slot, and ColdRefIters the count of the run's most
	// recent cold solve before it — together the per-slot cold-vs-warm
	// iteration delta `soral -replay` reconciles (warm must be strictly
	// fewer). Both absent on cold slots and on warm slots with no cold
	// reference yet (e.g. the first slot after a resume).
	WarmIters    int `json:"warm_iters,omitempty"`
	ColdRefIters int `json:"cold_ref_iters,omitempty"`
}

// StateRecord checkpoints the online algorithm's restartable state right
// after slot Slot committed: the decision vectors the next slot's subproblem
// is built from (x_prev) and, on a warm-start run, the exit duals the next
// slot's warm solve starts from. JSON encodes float64 exactly (shortest
// round-trip form) and Bits carries bit patterns, so a resumed run restarts
// from bit-identical state.
type StateRecord struct {
	Kind string `json:"kind"` // always KindState
	// Slot is the slot whose committed decision this checkpoints; it must
	// match the immediately preceding slot record.
	Slot int       `json:"slot"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
	Z    []float64 `json:"z"`
	// DecisionDigest repeats the slot record's digest so the reader can
	// verify the vectors reconstruct the committed decision exactly.
	DecisionDigest string `json:"decision_digest"`
	// Duals are the KKT multipliers of P2's rows that the next slot's warm
	// solve starts from, and DualsSlot the slot whose P2 they were solved
	// at (at most Slot: a snapped decision carries earlier duals forward).
	// Both are absent when the run carries no duals (WarmStart off, a
	// degraded slot) and in journals that predate them, which read as "no
	// duals" — a compatible soral-journal/2 extension; the crc field stays
	// the last JSON key. DualsRepeat marks a line whose duals repeat the
	// previous state line's bitwise: the writer omits their text, as a run
	// at a fixed point repeats them slot after slot, and the reader fills
	// Duals in from that line.
	Duals       Bits `json:"duals,omitempty"`
	DualsRepeat bool `json:"duals_repeat,omitempty"`
	DualsSlot   int  `json:"duals_slot,omitempty"`
	// TimeNS is the record's wall-clock emission time in Unix nanoseconds.
	TimeNS int64 `json:"t_ns"`
	// CRC is the record checksum; see Header.CRC.
	CRC string `json:"crc,omitempty"`
}

// Bits is a float64 vector that JSON carries bit for bit: a string holding
// the standard, padded base64 of its elements' IEEE-754 bit patterns,
// little-endian, 8 bytes an element. Formatting and parsing bits costs a
// fraction of shortest-round-trip decimal (DESIGN.md §10). Only finite,
// non-empty vectors encode: a NaN or ±Inf element fails the record, as it
// does in a number field, and the empty string does not decode.
type Bits []float64

// MarshalJSON encodes v as its base64 string, or null when v is nil.
func (v Bits) MarshalJSON() ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	b, ok := appendBits(nil, v)
	if !ok {
		return nil, errNonFiniteBits
	}
	return b, nil
}

// UnmarshalJSON decodes a base64 string written by MarshalJSON, or null.
func (v *Bits) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*v = nil
		return nil
	}
	var text string
	if err := json.Unmarshal(data, &text); err != nil {
		return err
	}
	out, ok := parseBits(nil, []byte(text))
	if !ok {
		return fmt.Errorf("journal: %q is not the base64 of finite float64 bits", text)
	}
	*v = out
	return nil
}

// AlertRecord journals one watchdog rule transition: a rule started firing
// or resolved. Records are advisory — `soral -replay` surfaces them without
// failing the replay — but CRC'd and validated like every other kind, so the
// alert trail is as tamper-evident as the decision trail.
type AlertRecord struct {
	Kind string `json:"kind"` // always KindAlert
	// Rule names the detector (e.g. "slo-burn-rate", "competitive-ratio").
	Rule string `json:"rule"`
	// Severity is warn|critical; critical alerts are the class cmd/soral
	// escalates to Health.Fail.
	Severity string `json:"severity"`
	// State is firing|resolved.
	State string `json:"state"`
	// Value is the observed quantity that crossed (or re-crossed) Threshold.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Reason is the rule's human-readable explanation of the transition.
	Reason string `json:"reason,omitempty"`
	// TimeNS is the record's wall-clock emission time in Unix nanoseconds.
	TimeNS int64 `json:"t_ns"`
	// CRC is the record checksum; see Header.CRC.
	CRC string `json:"crc,omitempty"`
}

// Footer is the run postamble: totals a reader can reconcile against the
// slot lines.
type Footer struct {
	Kind      string `json:"kind"` // always KindFooter
	Slots     int    `json:"slots"`
	Recovered int    `json:"recovered"`
	Degraded  int    `json:"degraded"`
	// TotalCost is the run objective (allocation plus reconfiguration over
	// the horizon); TotalIters the run's solver-iteration total.
	TotalCost  float64 `json:"total_cost"`
	TotalIters int     `json:"total_iters,omitempty"`
	// DurNS is the whole run's wall time.
	DurNS int64 `json:"dur_ns,omitempty"`
	// TimeNS is the wall-clock end time in Unix nanoseconds.
	TimeNS int64 `json:"t_ns"`
	// CRC is the record checksum; see Header.CRC.
	CRC string `json:"crc,omitempty"`
}

// Journal is a fully parsed and validated journal file.
type Journal struct {
	Header Header
	Slots  []SlotRecord
	// LastState is the most recent state checkpoint (nil when the journal
	// carries none, e.g. version-1 files or post-hoc recordings).
	LastState *StateRecord
	// Alerts collects the watchdog's journaled rule transitions, in emission
	// order (empty for runs recorded without -watch).
	Alerts []AlertRecord
	// Footer is nil when the run died before writing one.
	Footer *Footer
}

// Replayable reports whether the journal embeds the configuration needed to
// re-run it.
func (j *Journal) Replayable() bool { return len(j.Header.Config) > 0 }

// LastSlot returns the index of the last recorded slot, or -1 when no slot
// committed before the journal ended.
func (j *Journal) LastSlot() int {
	if len(j.Slots) == 0 {
		return -1
	}
	return j.Slots[len(j.Slots)-1].Slot
}

// ErrTornTail is the sentinel wrapped by TornTailError, so callers can test
// for a torn tail with errors.Is without caring about the diagnostics.
var ErrTornTail = errors.New("journal: torn tail")

// TornTailError reports a journal whose final record is incomplete or fails
// its checksum — the signature of a process that died mid-write. The valid
// prefix is intact: LastGoodSlot is the last durable slot (-1 when no slot
// survived) and Recover truncates the tail and returns that prefix.
type TornTailError struct {
	// LastGoodSlot is the last slot index whose record is fully durable.
	LastGoodSlot int
	// Line is the 1-based line number of the torn record.
	Line int
	// Cause is what invalidated the tail (JSON parse failure or checksum
	// mismatch).
	Cause error
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("journal: torn tail at line %d (last durable slot %d): %v",
		e.Line, e.LastGoodSlot, e.Cause)
}

// Unwrap makes errors.Is(err, ErrTornTail) work.
func (e *TornTailError) Unwrap() error { return ErrTornTail }

// Digest fingerprints groups of float64 slices: each group is hashed as its
// length followed by the IEEE-754 bit pattern of every element, all
// little-endian, so the digest is identical across platforms and runs
// exactly when the values are bit-identical. A nil group hashes like an
// empty one. The result is "sha256:" plus the hex digest.
func Digest(groups ...[]float64) string {
	h := sha256.New()
	// The words go to the hash 64 at a time: one Write per word cost more
	// than the hashing on the vectors a slot digests.
	var buf [64 * 8]byte
	n := 0
	word := func(w uint64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], w)
		n += 8
	}
	for _, g := range groups {
		word(uint64(len(g)))
		for _, v := range g {
			word(math.Float64bits(v))
		}
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	return digestText(h.Sum(sum[:0]))
}

// DigestBytes fingerprints a byte blob (e.g. a canonical config JSON) with
// the same self-describing "sha256:" prefix as Digest.
func DigestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return digestText(sum[:])
}

// digestText formats a SHA-256 sum as "sha256:" plus its hex digits.
func digestText(sum []byte) string {
	var text [len("sha256:") + 2*sha256.Size]byte
	n := copy(text[:], "sha256:")
	hex.Encode(text[n:], sum)
	return string(text[:])
}

// crcPrefix self-describes the per-record checksum algorithm (CRC32 with the
// Castagnoli polynomial, the WAL-standard choice with hardware support).
const crcPrefix = "crc32c:"

// appendChecksum appends the record checksum text of sum, a CRC32C of the
// record's payload: "crc32c:" plus eight lower-case hex digits. The payload
// is the marshaled record without its crc field — exactly the line bytes
// that precede `,"crc":"..."}` with a closing brace restored.
func appendChecksum(b []byte, sum uint32) []byte {
	b = append(b, crcPrefix...)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[sum>>shift&0xF])
	}
	return b
}

const hexDigits = "0123456789abcdef"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcMarker is the byte sequence that separates a record's payload from its
// checksum field. The writer declares CRC as the last struct field, so the
// final occurrence on a line is always the record's own checksum.
var crcMarker = []byte(`,"crc":"`)

// closeBrace restores the payload's closing brace when a line is verified.
var closeBrace = []byte{'}'}

// sealLine turns the record payload b[start:] (one JSON object) into a
// journal line: the closing brace gives way to the crc field over the
// payload, and a newline ends the line.
func sealLine(b []byte, start int) []byte {
	sum := crc32.Checksum(b[start:], castagnoli)
	b = append(b[:len(b)-1], crcMarker...)
	b = appendChecksum(b, sum)
	return append(b, '"', '}', '\n')
}

// verifyLine checks a raw journal line against the checksum it carries. The
// crc field must be the line's last JSON key (the writer guarantees it); the
// payload is everything before the marker with the closing brace restored.
func verifyLine(raw []byte, crc string) error {
	i := bytes.LastIndex(raw, crcMarker)
	if i < 0 {
		return fmt.Errorf("record carries crc %q but the line has no crc field", crc)
	}
	sum := crc32.Update(crc32.Checksum(raw[:i], castagnoli), castagnoli, closeBrace)
	var buf [len(crcPrefix) + 8]byte
	if got := appendChecksum(buf[:0], sum); string(got) != crc {
		return fmt.Errorf("checksum mismatch: line sums to %s, record claims %s", got, crc)
	}
	return nil
}
