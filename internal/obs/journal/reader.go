package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// maxLine bounds one journal line; headers embed configs, which can carry
// custom traces, so the ceiling is generous.
const maxLine = 16 << 20

// validDigest reports whether s is a well-formed digest: "sha256:"
// followed by exactly 64 lower-case hex digits.
func validDigest(s string) bool {
	const prefix = "sha256:"
	if len(s) != len(prefix)+64 || s[:len(prefix)] != prefix {
		return false
	}
	for _, c := range []byte(s[len(prefix):]) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// corruptError marks a structural failure — bytes that cannot be what the
// writer produced (unparseable JSON, a failed or missing checksum). At the
// tail of a file it is the signature of a torn write; anywhere else it is
// mid-file corruption.
type corruptError struct{ cause error }

func (e *corruptError) Error() string { return e.cause.Error() }
func (e *corruptError) Unwrap() error { return e.cause }

// Read parses and validates a journal: exactly one header first, slot
// records in strictly increasing slot order, state checkpoints matching the
// slot they follow, digests well-formed, checksums verified (version ≥ 2),
// statuses from the known taxonomy, and at most one footer, last, whose
// counts reconcile with the slot lines. A missing footer is not an error
// (the run died mid-flight between records); a structurally invalid final
// record is reported as a *TornTailError (the run died mid-write), and any
// other violation is a plain error.
func Read(r io.Reader) (*Journal, error) {
	j, _, err := scan(r, false)
	return j, err
}

// RecoverInfo describes what Recover found and (for RecoverFile) repaired.
type RecoverInfo struct {
	// Torn reports whether a torn tail was detected and dropped.
	Torn bool
	// TornLine is the 1-based line number of the dropped record (0 when the
	// file was clean).
	TornLine int
	// GoodBytes is the length of the valid prefix; RecoverFile truncates the
	// file to exactly this size.
	GoodBytes int64
	// DroppedBytes counts the bytes past the valid prefix.
	DroppedBytes int64
	// MissingNewline reports a final record that is valid and fully
	// checksummed but lost its line terminator; RecoverFile restores it.
	MissingNewline bool
	// LastSlot is the last durable slot index (-1 when none committed).
	LastSlot int
	// Complete reports whether the journal carries a footer — a finished
	// run with nothing to resume.
	Complete bool
}

// Recover reads a journal tolerating a torn tail: the valid prefix is
// parsed and returned together with what was dropped. Mid-file corruption —
// an invalid record with valid data after it — is still rejected: that is
// not the signature of a crash mid-write, and silently skipping records
// would forge the audit trail.
func Recover(r io.Reader) (*Journal, *RecoverInfo, error) {
	return scan(r, true)
}

// RecoverFile recovers the journal at path and makes the file itself ready
// for a resumed run: a torn tail is truncated away and a missing final
// newline restored, so the file ends exactly at the last durable record.
func RecoverFile(path string) (*Journal, *RecoverInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	j, info, err := Recover(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	if info.Torn || info.MissingNewline {
		fw, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return nil, nil, err
		}
		defer fw.Close()
		if err := fw.Truncate(info.GoodBytes); err != nil {
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		if info.MissingNewline {
			if _, err := fw.WriteAt([]byte{'\n'}, info.GoodBytes); err != nil {
				return nil, nil, fmt.Errorf("journal: restoring final newline: %w", err)
			}
			info.GoodBytes++
			info.MissingNewline = false
		}
		if err := fw.Sync(); err != nil {
			return nil, nil, fmt.Errorf("journal: syncing recovered file: %w", err)
		}
	}
	return j, info, nil
}

// scanState threads the validation state through the record-at-a-time adds.
type scanState struct {
	j          *Journal
	seenHeader bool
	crcNeeded  bool
	// spare is the record the next canonical state line decodes into; it
	// never aliases j.LastState, so a line that fails validation leaves the
	// last good checkpoint intact.
	spare *StateRecord
	// memo holds the last canonical state line's vector text and values, so
	// a run of repeated checkpoints is parsed once.
	memo vectorMemo
}

// The first bytes of canonical slot and state lines.
var (
	slotPrefix  = []byte(`{"kind":"slot",`)
	statePrefix = []byte(`{"kind":"state",`)
)

// scan drives the line loop shared by Read and Recover.
func scan(r io.Reader, tolerate bool) (*Journal, *RecoverInfo, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	st := &scanState{j: &Journal{}}
	info := &RecoverInfo{LastSlot: -1}
	line := 0
	var long []byte
	for {
		raw, rerr := readLine(br, &long)
		if rerr != nil && rerr != io.EOF {
			return nil, nil, fmt.Errorf("journal: %w", rerr)
		}
		if len(raw) == 0 {
			break // clean EOF at a record boundary
		}
		line++
		terminated := raw[len(raw)-1] == '\n'
		content := raw
		if terminated {
			content = raw[:len(raw)-1]
		}
		if len(content) == 0 {
			info.GoodBytes += int64(len(raw))
			if rerr == io.EOF {
				break
			}
			continue
		}
		if len(content) > maxLine {
			return nil, nil, fmt.Errorf("journal: line %d exceeds %d bytes", line, maxLine)
		}
		verr := st.add(content, line)
		if verr == nil && !terminated {
			// The record is complete and checksummed; only its newline was
			// lost. The prefix including it is durable.
			info.GoodBytes += int64(len(content))
			info.MissingNewline = true
			break
		}
		if verr != nil {
			var ce *corruptError
			structural := errors.As(verr, &ce)
			rest, _ := io.ReadAll(br)
			more := len(bytes.TrimSpace(rest)) > 0
			if structural && !more {
				tte := &TornTailError{LastGoodSlot: st.j.LastSlot(), Line: line, Cause: ce.cause}
				if !tolerate {
					return nil, nil, tte
				}
				info.Torn = true
				info.TornLine = line
				info.DroppedBytes = int64(len(raw) + len(rest))
				break
			}
			return nil, nil, fmt.Errorf("journal: line %d: %w", line, verr)
		}
		info.GoodBytes += int64(len(raw))
		if rerr == io.EOF {
			break
		}
	}
	if !st.seenHeader {
		return nil, nil, fmt.Errorf("journal: no header record survived")
	}
	info.LastSlot = st.j.LastSlot()
	info.Complete = st.j.Footer != nil
	return st.j, info, nil
}

// readLine returns the next line, its newline included, or what is left
// before EOF. A line that fits the reader's buffer is returned in place,
// valid until the next read; a longer one (a header embedding a large
// config) is assembled in *long.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	raw, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return raw, err
	}
	buf := append((*long)[:0], raw...)
	for err == bufio.ErrBufferFull {
		raw, err = br.ReadSlice('\n')
		buf = append(buf, raw...)
	}
	*long = buf
	return buf, err
}

// add validates and applies one record line. Slot and state lines in the
// writer's canonical form are decoded without reflection (decode.go); any
// other line, and any line those decoders decline, goes through
// json.Unmarshal, so both paths accept and reject the same lines.
func (st *scanState) add(raw []byte, line int) error {
	j := st.j
	var kind, crc string
	var slot SlotRecord
	fast := false
	switch {
	case bytes.HasPrefix(raw, slotPrefix):
		fast = decodeSlot(raw, &slot)
		kind, crc = slot.Kind, slot.CRC
	case bytes.HasPrefix(raw, statePrefix):
		if st.spare == nil {
			st.spare = &StateRecord{}
		}
		fast = decodeState(raw, st.spare, &st.memo)
		kind, crc = st.spare.Kind, st.spare.CRC
	}
	if !fast {
		var probe struct {
			Kind string `json:"kind"`
			CRC  string `json:"crc"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return &corruptError{fmt.Errorf("not a JSON record: %w", err)}
		}
		kind, crc = probe.Kind, probe.CRC
	}
	if crc != "" {
		if err := verifyLine(raw, crc); err != nil {
			return &corruptError{err}
		}
	} else if st.crcNeeded {
		return fmt.Errorf("version %d record carries no crc field", Version)
	}
	if j.Footer != nil {
		return fmt.Errorf("%q record after the footer", kind)
	}
	switch kind {
	case KindHeader:
		if st.seenHeader {
			return fmt.Errorf("second header")
		}
		if err := json.Unmarshal(raw, &j.Header); err != nil {
			return fmt.Errorf("bad header: %w", err)
		}
		if j.Header.Version < 1 || j.Header.Version > Version {
			return fmt.Errorf("schema version %d (reader supports 1..%d)", j.Header.Version, Version)
		}
		st.crcNeeded = j.Header.Version >= 2
		if st.crcNeeded && crc == "" {
			return fmt.Errorf("version %d header carries no crc field", j.Header.Version)
		}
		if j.Header.Algorithm == "" {
			return fmt.Errorf("header names no algorithm")
		}
		if j.Header.ConfigDigest != "" {
			if !validDigest(j.Header.ConfigDigest) {
				return fmt.Errorf("malformed config digest %q", j.Header.ConfigDigest)
			}
			if len(j.Header.Config) > 0 && DigestBytes(j.Header.Config) != j.Header.ConfigDigest {
				return fmt.Errorf("embedded config does not match its digest")
			}
		}
		st.seenHeader = true
	case KindSlot:
		if !st.seenHeader {
			return fmt.Errorf("slot record before the header")
		}
		rec := slot
		if !fast {
			if err := json.Unmarshal(raw, &rec); err != nil {
				return fmt.Errorf("bad slot record: %w", err)
			}
		}
		if n := len(j.Slots); n > 0 && rec.Slot <= j.Slots[n-1].Slot {
			return fmt.Errorf("slot %d after slot %d (must be strictly increasing)", rec.Slot, j.Slots[n-1].Slot)
		}
		if !validDigest(rec.InputsDigest) {
			return fmt.Errorf("malformed inputs digest %q", rec.InputsDigest)
		}
		if !validDigest(rec.DecisionDigest) {
			return fmt.Errorf("malformed decision digest %q", rec.DecisionDigest)
		}
		switch rec.Status {
		case StatusOK, StatusRecovered, StatusDegraded:
		default:
			return fmt.Errorf("unknown slot status %q", rec.Status)
		}
		j.Slots = append(j.Slots, rec)
	case KindState:
		if !st.seenHeader {
			return fmt.Errorf("state record before the header")
		}
		rec := st.spare
		if !fast {
			rec = &StateRecord{}
			if err := json.Unmarshal(raw, rec); err != nil {
				return fmt.Errorf("bad state record: %w", err)
			}
		}
		n := len(j.Slots)
		if n == 0 || j.Slots[n-1].Slot != rec.Slot {
			return fmt.Errorf("state checkpoint for slot %d does not follow that slot's record", rec.Slot)
		}
		if Digest(rec.X, rec.Y, rec.Z) != rec.DecisionDigest {
			return fmt.Errorf("state vectors for slot %d do not hash to their digest", rec.Slot)
		}
		if rec.DecisionDigest != j.Slots[n-1].DecisionDigest {
			return fmt.Errorf("state checkpoint for slot %d does not match the committed decision", rec.Slot)
		}
		duals := rec.Duals
		if rec.DualsRepeat {
			if len(duals) > 0 || j.LastState == nil || len(j.LastState.Duals) == 0 {
				return fmt.Errorf("state checkpoint for slot %d repeats duals the state line before it does not carry", rec.Slot)
			}
			duals = j.LastState.Duals
		}
		if rec.DualsSlot < 0 || rec.DualsSlot > rec.Slot || rec.DualsSlot != 0 && len(duals) == 0 {
			return fmt.Errorf("state checkpoint for slot %d carries %d duals solved at slot %d", rec.Slot, len(duals), rec.DualsSlot)
		}
		if rec.DualsRepeat {
			// The checkpoint it replaces hands its duals over rather than
			// lending them with its other vectors to the next state line.
			rec.Duals, j.LastState.Duals = duals, nil
		}
		if fast {
			// The checkpoint it replaces lends its vectors to the next
			// state line.
			st.spare = j.LastState
		}
		j.LastState = rec
	case KindAlert:
		if !st.seenHeader {
			return fmt.Errorf("alert record before the header")
		}
		var rec AlertRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("bad alert record: %w", err)
		}
		if rec.Rule == "" {
			return fmt.Errorf("alert record names no rule")
		}
		switch rec.State {
		case AlertFiring, AlertResolved:
		default:
			return fmt.Errorf("unknown alert state %q", rec.State)
		}
		switch rec.Severity {
		case SeverityWarn, SeverityCritical:
		default:
			return fmt.Errorf("unknown alert severity %q", rec.Severity)
		}
		j.Alerts = append(j.Alerts, rec)
	case KindFooter:
		if !st.seenHeader {
			return fmt.Errorf("footer before the header")
		}
		var f Footer
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("bad footer: %w", err)
		}
		if f.Slots != len(j.Slots) {
			return fmt.Errorf("footer claims %d slots, journal has %d", f.Slots, len(j.Slots))
		}
		var rec, deg int
		for _, s := range j.Slots {
			switch s.Status {
			case StatusRecovered:
				rec++
			case StatusDegraded:
				deg++
			}
		}
		if f.Recovered != rec || f.Degraded != deg {
			return fmt.Errorf("footer counts %d recovered/%d degraded, slots say %d/%d",
				f.Recovered, f.Degraded, rec, deg)
		}
		j.Footer = &f
	default:
		return fmt.Errorf("unknown record kind %q", kind)
	}
	return nil
}
