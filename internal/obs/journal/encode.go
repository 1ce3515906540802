package journal

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// The per-slot records (slot and state lines) are encoded by hand: they are
// written once per committed slot, and reflection-driven json.Marshal was
// most of the commit path's cost. The output is byte-identical to
// json.Marshal of the same record — same field order, omitempty rules, float
// formatting and string escaping — which FuzzJournalRecordEncoding and
// TestRecordEncodersCoverEveryField pin. Header, footer and alert records are
// written once per run and keep json.Marshal.

// encoder appends one record's JSON to a line buffer. Each key argument is
// the literal text before the value (`{"kind":` for the first field,
// `,"name":` for the rest). The first unencodable value latches err, as
// json.Marshal would fail the whole record.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) int(key string, v int64) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, v, 10)
}

// float appends v in encoding/json's float64 form: the shortest round-trip
// digits, 'f' format unless |v| < 1e-6 or |v| ≥ 1e21 (then 'e' with the
// exponent's leading zero dropped). NaN and ±Inf have no JSON form.
func (e *encoder) float(key string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	e.b = append(e.b, key...)
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 && abs > 0 || abs >= 1e21 {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, v, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// floatOmit is float under omitempty: ±0 is omitted.
func (e *encoder) floatOmit(key string, v float64) {
	if math.Float64bits(v)<<1 != 0 {
		e.float(key, v)
	}
}

// floats appends v as a JSON array, or null when v is nil.
func (e *encoder) floats(key string, v []float64) {
	e.b = append(e.b, key...)
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float("", x)
	}
	e.b = append(e.b, ']')
}

// str appends s as a JSON string with encoding/json's escaping: quote,
// backslash and control bytes escaped; <, > and & escaped too (the HTML-safe
// form); each byte of invalid UTF-8 replaced by an escaped U+FFFD; and
// U+2028 and U+2029 escaped.
func (e *encoder) str(key, s string) {
	b := append(e.b, key...)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// appendJSON appends r as json.Marshal encodes it.
func (r *SlotRecord) appendJSON(b []byte) ([]byte, error) {
	e := encoder{b: b}
	e.str(`{"kind":`, r.Kind)
	e.int(`,"slot":`, int64(r.Slot))
	e.str(`,"inputs_digest":`, r.InputsDigest)
	e.str(`,"decision_digest":`, r.DecisionDigest)
	e.float(`,"alloc_cost":`, r.AllocCost)
	e.float(`,"reconf_cost":`, r.ReconfCost)
	e.str(`,"status":`, r.Status)
	if r.Rung != "" {
		e.str(`,"rung":`, r.Rung)
	}
	if r.DurNS != 0 {
		e.int(`,"dur_ns":`, r.DurNS)
	}
	if r.Iters != 0 {
		e.int(`,"iters":`, int64(r.Iters))
	}
	if r.Warm {
		e.b = append(e.b, `,"warm":true`...)
	}
	if a := r.Attr; a != nil {
		e.float(`,"attr":{"alloc_t2":`, a.AllocT2)
		e.float(`,"alloc_net":`, a.AllocNet)
		e.floatOmit(`,"alloc_t1":`, a.AllocT1)
		e.float(`,"reconf_t2":`, a.ReconfT2)
		e.float(`,"reconf_net":`, a.ReconfNet)
		e.floatOmit(`,"reconf_t1":`, a.ReconfT1)
		if len(a.PerTier2) > 0 {
			e.floats(`,"per_tier2":`, a.PerTier2)
		}
		if len(a.PerTier1) > 0 {
			e.floats(`,"per_tier1":`, a.PerTier1)
		}
		e.floatOmit(`,"slack":`, a.Slack)
		e.floatOmit(`,"oper_lb":`, a.OperLB)
		if a.WarmIters != 0 {
			e.int(`,"warm_iters":`, int64(a.WarmIters))
		}
		if a.ColdRefIters != 0 {
			e.int(`,"cold_ref_iters":`, int64(a.ColdRefIters))
		}
		e.b = append(e.b, '}')
	}
	e.int(`,"t_ns":`, r.TimeNS)
	if r.CRC != "" {
		e.str(`,"crc":`, r.CRC)
	}
	e.b = append(e.b, '}')
	return e.b, e.err
}

// appendJSON appends r as json.Marshal encodes it.
func (r *StateRecord) appendJSON(b []byte) ([]byte, error) {
	return r.appendJSONMemo(b, nil, false)
}

// appendJSONMemo is appendJSON with the vectors' text taken from m when r's
// X, Y and Z repeat m's bitwise, and recorded into m otherwise (m may be
// nil). An unencodable vector leaves m unfilled. With repeat set, r's
// Duals — which the caller found to repeat the previous state line's
// bitwise — are written as duals_repeat instead of their text, which the
// reader resolves to that line's duals; the line is then json.Marshal's
// encoding of r with Duals nil and DualsRepeat set.
func (r *StateRecord) appendJSONMemo(b []byte, m *vectorMemo, repeat bool) ([]byte, error) {
	e := encoder{b: b}
	e.str(`{"kind":`, r.Kind)
	e.int(`,"slot":`, int64(r.Slot))
	if m.matches(r.X, r.Y, r.Z) {
		e.b = append(e.b, m.text...)
	} else {
		start := len(e.b)
		e.floats(`,"x":`, r.X)
		e.floats(`,"y":`, r.Y)
		e.floats(`,"z":`, r.Z)
		if e.err == nil {
			m.fill(r.X, r.Y, r.Z, e.b[start:])
		}
	}
	e.str(`,"decision_digest":`, r.DecisionDigest)
	if !repeat && len(r.Duals) > 0 {
		e.bits(`,"duals":`, r.Duals)
	}
	if repeat || r.DualsRepeat {
		e.b = append(e.b, `,"duals_repeat":true`...)
	}
	if r.DualsSlot != 0 {
		e.int(`,"duals_slot":`, int64(r.DualsSlot))
	}
	e.int(`,"t_ns":`, r.TimeNS)
	if r.CRC != "" {
		e.str(`,"crc":`, r.CRC)
	}
	e.b = append(e.b, '}')
	return e.b, e.err
}

// bits appends v as a Bits string (appendBits); a non-finite element
// latches an error, as Bits.MarshalJSON fails.
func (e *encoder) bits(key string, v []float64) {
	b, ok := appendBits(append(e.b, key...), v)
	if !ok {
		if e.err == nil {
			e.err = errNonFiniteBits
		}
		return
	}
	e.b = b
}

// errNonFiniteBits is the error of a Bits vector holding NaN or ±Inf.
var errNonFiniteBits = errors.New("journal: non-finite value in a bits vector")

// appendBits appends v as a JSON string of the standard, padded base64 of
// its little-endian IEEE-754 bit patterns, and reports false, with b
// unchanged, when v holds NaN or ±Inf. Three elements are 24 bytes, which
// encode to 32 characters with no padding, so encoding three at a time
// from a stack buffer gives the text of one encoding of the whole vector
// without allocating.
func appendBits(b []byte, v []float64) ([]byte, bool) {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return b, false
		}
	}
	b = append(b, '"')
	var buf [24]byte
	for i := 0; i < len(v); i += 3 {
		k := 0
		for ; k < 3 && i+k < len(v); k++ {
			binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(v[i+k]))
		}
		b = base64.StdEncoding.AppendEncode(b, buf[:8*k])
	}
	return append(b, '"'), true
}

// vectorMemo holds the last checkpoint's X, Y and Z and the text they
// encoded to (`,"x":[…],"y":[…],"z":[…]`). An online run at a fixed point —
// a decision-cache hit or a snapped decision — checkpoints the same vectors
// slot after slot, and the memo appends their text instead of formatting
// every float again. Vectors match only bitwise (math.Float64bits, so −0 and
// +0 differ, as their encodings do) and only with the same nil-ness (nil
// encodes as null, an empty slice as []).
type vectorMemo struct {
	ok   bool
	vecs [3][]float64
	null [3]bool
	text []byte
}

// matches reports whether x, y and z repeat the memoized vectors bitwise.
// The nil memo matches nothing.
func (m *vectorMemo) matches(x, y, z []float64) bool {
	if m == nil || !m.ok {
		return false
	}
	for i, v := range [3][]float64{x, y, z} {
		if (v == nil) != m.null[i] || !sameBits(v, m.vecs[i]) {
			return false
		}
	}
	return true
}

// fill memoizes x, y and z and their encoded text, reusing the memo's
// buffers. The nil memo ignores the call.
func (m *vectorMemo) fill(x, y, z []float64, text []byte) {
	if m == nil {
		return
	}
	for i, v := range [3][]float64{x, y, z} {
		m.vecs[i] = append(m.vecs[i][:0], v...)
		m.null[i] = v == nil
	}
	m.text = append(m.text[:0], text...)
	m.ok = true
}

// matchesText reports whether b starts with the memoized text. The nil
// memo matches nothing.
func (m *vectorMemo) matchesText(b []byte) bool {
	return m != nil && m.ok && bytes.HasPrefix(b, m.text)
}

// copyTo returns memoized vector i in dst's storage: nil where the memo
// holds nil, a non-nil slice otherwise.
func (m *vectorMemo) copyTo(i int, dst []float64) []float64 {
	if m.null[i] {
		return nil
	}
	if dst == nil {
		dst = []float64{}
	}
	return append(dst[:0], m.vecs[i]...)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
