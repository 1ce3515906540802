package journal

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"math"
	"strconv"
)

// The per-slot records (slot and state lines) are decoded without
// reflection when they are in the writer's canonical form: fields in
// declaration order, no whitespace, strings of printable ASCII without
// escapes, and numbers in JSON's grammar. The decoders below accept only
// that form and decline everything else, which the reader then hands to
// json.Unmarshal. A line they accept decodes to exactly the struct
// json.Unmarshal returns for it (FuzzCanonicalDecode pins that), so the
// reader accepts and rejects the same journals either way.

// decoder walks one line. The first mismatch clears ok, and every later
// call is a no-op, so a decode reads as a straight list of fields checked
// once at the end.
type decoder struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes s, which must come next.
func (d *decoder) lit(s string) {
	if !d.opt(s) {
		d.ok = false
	}
}

// opt consumes s if it comes next and reports whether it did: the key of
// an optional field.
func (d *decoder) opt(s string) bool {
	if !d.ok || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// str reads a string of printable ASCII with no escapes.
func (d *decoder) str() string {
	d.lit(`"`)
	if !d.ok {
		return ""
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := intern(d.b[start:d.i])
			d.i++
			return s
		case c < 0x20 || c == '\\' || c >= 0x80:
			d.ok = false
			return ""
		}
	}
	d.ok = false
	return ""
}

// intern returns b as a string, sharing the constant for the record kinds
// and slot statuses every line repeats.
func intern(b []byte) string {
	switch string(b) {
	case KindSlot:
		return KindSlot
	case KindState:
		return KindState
	case StatusOK:
		return StatusOK
	case StatusRecovered:
		return StatusRecovered
	case StatusDegraded:
		return StatusDegraded
	}
	return string(b)
}

// digits consumes a run of decimal digits and reports how many.
func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// integer consumes JSON's integer part, -?(0|[1-9][0-9]*), and returns its
// text.
func (d *decoder) integer() []byte {
	if !d.ok {
		return nil
	}
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if d.digits() == 0 {
		d.ok = false
	}
	return d.b[start:d.i]
}

// int reads an integer as json.Unmarshal stores one into an int64 field:
// no fraction or exponent, and within range.
func (d *decoder) int() int64 {
	text := d.integer()
	if !d.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(text), 10, 64)
	if err != nil {
		d.ok = false
	}
	return v
}

// float reads a JSON number as json.Unmarshal stores one into a float64
// field: strconv.ParseFloat of its text, and a range error declines.
func (d *decoder) float() float64 {
	start := d.i
	d.integer()
	if d.opt(".") && d.digits() == 0 {
		d.ok = false
	}
	if d.ok && d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			d.ok = false
		}
	}
	if !d.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.ok = false
	}
	return v
}

// floats reads null (a nil slice) or an array of numbers, appended to
// dst[:0] so a caller can reuse a buffer; an empty array is a non-nil empty
// slice, as json.Unmarshal leaves it.
func (d *decoder) floats(dst []float64) []float64 {
	if d.opt("null") {
		return nil
	}
	d.lit("[")
	if dst == nil {
		// A fresh slice is sized to the array: one allocation, not one
		// per doubling.
		n := 0
		if d.ok && d.i < len(d.b) && d.b[d.i] != ']' {
			n = 1
			for _, c := range d.b[d.i:] {
				if c == ']' {
					break
				}
				if c == ',' {
					n++
				}
			}
		}
		dst = make([]float64, 0, n)
	}
	dst = dst[:0]
	if d.opt("]") {
		return dst
	}
	for d.ok {
		dst = append(dst, d.float())
		if d.opt("]") {
			return dst
		}
		d.lit(",")
	}
	return nil
}

// end checks that the record closed and nothing follows it.
func (d *decoder) end() bool {
	d.lit("}")
	return d.ok && d.i == len(d.b)
}

// decodeSlot decodes a slot line in canonical form into r, a zero record,
// and reports whether it did; on false r holds garbage.
func decodeSlot(b []byte, r *SlotRecord) bool {
	d := decoder{b: b, ok: true}
	d.lit(`{"kind":`)
	r.Kind = d.str()
	d.lit(`,"slot":`)
	r.Slot = int(d.int())
	d.lit(`,"inputs_digest":`)
	r.InputsDigest = d.str()
	d.lit(`,"decision_digest":`)
	r.DecisionDigest = d.str()
	d.lit(`,"alloc_cost":`)
	r.AllocCost = d.float()
	d.lit(`,"reconf_cost":`)
	r.ReconfCost = d.float()
	d.lit(`,"status":`)
	r.Status = d.str()
	if d.opt(`,"rung":`) {
		r.Rung = d.str()
	}
	if d.opt(`,"dur_ns":`) {
		r.DurNS = d.int()
	}
	if d.opt(`,"iters":`) {
		r.Iters = int(d.int())
	}
	r.Warm = d.opt(`,"warm":true`)
	if d.opt(`,"attr":{"alloc_t2":`) {
		a := &CostAttr{}
		r.Attr = a
		a.AllocT2 = d.float()
		d.lit(`,"alloc_net":`)
		a.AllocNet = d.float()
		if d.opt(`,"alloc_t1":`) {
			a.AllocT1 = d.float()
		}
		d.lit(`,"reconf_t2":`)
		a.ReconfT2 = d.float()
		d.lit(`,"reconf_net":`)
		a.ReconfNet = d.float()
		if d.opt(`,"reconf_t1":`) {
			a.ReconfT1 = d.float()
		}
		if d.opt(`,"per_tier2":`) {
			a.PerTier2 = d.floats(nil)
		}
		if d.opt(`,"per_tier1":`) {
			a.PerTier1 = d.floats(nil)
		}
		if d.opt(`,"slack":`) {
			a.Slack = d.float()
		}
		if d.opt(`,"oper_lb":`) {
			a.OperLB = d.float()
		}
		if d.opt(`,"warm_iters":`) {
			a.WarmIters = int(d.int())
		}
		if d.opt(`,"cold_ref_iters":`) {
			a.ColdRefIters = int(d.int())
		}
		d.lit("}")
	}
	d.lit(`,"t_ns":`)
	r.TimeNS = d.int()
	if d.opt(`,"crc":`) {
		r.CRC = d.str()
	}
	return d.end()
}

// decodeState decodes a state line in canonical form into r and reports
// whether it did; on false r holds garbage. r's vectors are reused as
// buffers, and every other field is overwritten or cleared. When the
// line's vector text repeats m's (the previous checkpoint's, at a fixed
// point), the vectors are copied from m instead of parsed; otherwise m
// memoizes them. m may be nil. A duals_repeat line decodes with nil Duals,
// as json.Unmarshal leaves them; the reader resolves it.
func decodeState(b []byte, r *StateRecord, m *vectorMemo) bool {
	d := decoder{b: b, ok: true}
	d.lit(`{"kind":`)
	r.Kind = d.str()
	d.lit(`,"slot":`)
	r.Slot = int(d.int())
	if start := d.i; m.matchesText(b[start:]) {
		r.X, r.Y, r.Z = m.copyTo(0, r.X), m.copyTo(1, r.Y), m.copyTo(2, r.Z)
		d.i += len(m.text)
	} else {
		d.lit(`,"x":`)
		r.X = d.floats(r.X)
		d.lit(`,"y":`)
		r.Y = d.floats(r.Y)
		d.lit(`,"z":`)
		r.Z = d.floats(r.Z)
		if d.ok {
			m.fill(r.X, r.Y, r.Z, b[start:d.i])
		}
	}
	d.lit(`,"decision_digest":`)
	r.DecisionDigest = d.str()
	if d.opt(`,"duals":`) {
		r.Duals = d.bits(r.Duals)
	} else {
		r.Duals = nil
	}
	r.DualsRepeat = d.opt(`,"duals_repeat":true`)
	r.DualsSlot = 0
	if d.opt(`,"duals_slot":`) {
		r.DualsSlot = int(d.int())
	}
	d.lit(`,"t_ns":`)
	r.TimeNS = d.int()
	r.CRC = ""
	if d.opt(`,"crc":`) {
		r.CRC = d.str()
	}
	return d.end()
}

// bits reads a Bits string (parseBits) into dst's storage.
func (d *decoder) bits(dst []float64) []float64 {
	d.lit(`"`)
	if !d.ok {
		return nil
	}
	end := bytes.IndexByte(d.b[d.i:], '"')
	if end < 0 {
		d.ok = false
		return nil
	}
	v, ok := parseBits(dst, d.b[d.i:d.i+end])
	d.i += end + 1
	d.ok = ok
	return v
}

// parseBits decodes text, the content of a Bits string, into dst[:0] and
// reports whether it was the padded standard base64 of one or more finite
// float64 bit patterns. It decodes 32 characters (three elements) at a
// time into a stack buffer; line breaks, which base64 decoding would skip,
// decline, so the chunks decode exactly as the whole text would.
func parseBits(dst []float64, text []byte) ([]float64, bool) {
	if len(text) == 0 || len(text)%4 != 0 || bytes.ContainsAny(text, "\r\n") {
		return nil, false
	}
	if dst == nil {
		dst = make([]float64, 0, len(text)/4*3/8)
	}
	dst = dst[:0]
	enc := base64.StdEncoding.Strict()
	var buf [24]byte
	for i := 0; i < len(text); i += 32 {
		k, err := enc.Decode(buf[:], text[i:min(i+32, len(text))])
		if err != nil || k%8 != 0 || k < 24 && i+32 < len(text) {
			return nil, false
		}
		for j := 0; j < k; j += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[j:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, false
			}
			dst = append(dst, v)
		}
	}
	return dst, true
}
