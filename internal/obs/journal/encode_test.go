package journal

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fuzzRecords builds a slot and a state record from one fuzz input. Every
// field takes a value derived from the input; the shape bits choose between
// the encodings' edge cases (nil Attr, nil/empty/filled slices, omitted
// optional fields). The state record's duals share their shape bits with
// PerTier1 and their repeat flag with Warm.
func fuzzRecords(s string, a, b, c float64, n int64, shape uint16) (SlotRecord, StateRecord) {
	bit := func(i uint) bool { return shape>>i&1 == 1 }
	vec := func(i uint) []float64 {
		switch shape >> i & 3 {
		case 0:
			return nil
		case 1:
			return []float64{}
		case 2:
			return []float64{a}
		}
		return []float64{a, b, c}
	}
	opt := func(v float64) float64 {
		if bit(14) {
			return 0
		}
		return v
	}
	count := func(v int64) int64 {
		if bit(15) {
			return 0
		}
		return v
	}
	sr := SlotRecord{
		Kind:           s,
		Slot:           int(n),
		InputsDigest:   s,
		DecisionDigest: s,
		AllocCost:      a,
		ReconfCost:     b,
		Status:         s,
		DurNS:          count(n),
		Iters:          int(count(-n)),
		Warm:           bit(13),
		TimeNS:         n,
	}
	if !bit(11) {
		sr.Rung = s
	}
	if bit(12) {
		sr.CRC = s
	}
	if !bit(0) {
		sr.Attr = &CostAttr{
			AllocT2:      c,
			AllocNet:     -a,
			AllocT1:      opt(b),
			ReconfT2:     -b,
			ReconfNet:    -c,
			ReconfT1:     opt(a),
			PerTier2:     vec(1),
			PerTier1:     vec(3),
			Slack:        opt(c),
			OperLB:       opt(-c),
			WarmIters:    int(count(n / 3)),
			ColdRefIters: int(count(n / 7)),
		}
	}
	st := StateRecord{
		Kind:           s,
		Slot:           int(n),
		X:              vec(5),
		Y:              vec(7),
		Z:              vec(9),
		DecisionDigest: s,
		Duals:          vec(3),
		DualsRepeat:    bit(13),
		DualsSlot:      int(count(n / 5)),
		TimeNS:         -n,
	}
	if bit(12) {
		st.CRC = s
	}
	return sr, st
}

// sameAsMarshal fails t unless enc appends exactly json.Marshal(rec)'s bytes
// to a non-empty buffer, or both fail.
func sameAsMarshal(t *testing.T, rec any, enc func([]byte) ([]byte, error)) {
	t.Helper()
	want, werr := json.Marshal(rec)
	got, gerr := enc([]byte("prefix"))
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%T: json.Marshal err = %v, hand encoder err = %v", rec, werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%T: hand encoder diverged from json.Marshal\n got: %s\nwant: prefix%s", rec, got, want)
	}
}

// FuzzJournalRecordEncoding pins the hand-written slot and state encoders
// byte for byte to encoding/json: float formatting at the 'f'/'e' cut-offs,
// ±0 and subnormals, omitempty, null for nil slices, string escaping (HTML
// escapes, control bytes, invalid UTF-8), and failure on NaN and ±Inf.
// Plain `go test` replays the committed corpus in
// testdata/fuzz/FuzzJournalRecordEncoding; `make fuzz` searches beyond it.
func FuzzJournalRecordEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, a, b, c float64, n int64, shape uint16) {
		sr, st := fuzzRecords(s, a, b, c, n, shape)
		sameAsMarshal(t, &sr, sr.appendJSON)
		sameAsMarshal(t, &st, st.appendJSON)
	})
}

// TestRecordEncodersCoverEveryField fills every field of SlotRecord (its
// CostAttr included) and StateRecord with a non-zero value and compares the
// hand encoders with json.Marshal, so a field added to a record without its
// encoder fails here even if no fuzz input sets it.
func TestRecordEncodersCoverEveryField(t *testing.T) {
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString("s<" + strconv.Itoa(i) + ">")
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(i + 1))
			case reflect.Float64:
				f.SetFloat(float64(i) + 0.5)
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Slice:
				f.Set(reflect.ValueOf([]float64{float64(i), 1e-7}))
			case reflect.Pointer:
				p := reflect.New(f.Type().Elem())
				fill(p.Elem())
				f.Set(p)
			default:
				t.Fatalf("%s.%s: no fill for kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	var sr SlotRecord
	var st StateRecord
	fill(reflect.ValueOf(&sr).Elem())
	fill(reflect.ValueOf(&st).Elem())
	sameAsMarshal(t, &sr, sr.appendJSON)
	sameAsMarshal(t, &st, st.appendJSON)
	for _, rec := range []any{&sr, sr.Attr, &st} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		requireEveryKey(t, line, rec)
	}
}

// requireEveryKey fails t unless line holds the JSON key of every field
// of *rec, so a field the fill left at its zero value (and omitempty
// dropped) cannot pass a cover test unseen.
func requireEveryKey(t *testing.T, line []byte, rec any) {
	t.Helper()
	typ := reflect.TypeOf(rec).Elem()
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if !bytes.Contains(line, []byte(`"`+key+`":`)) {
			t.Errorf("%s: key %q missing from %s", typ, key, line)
		}
	}
}

// TestCommitZeroAlloc pins the commit path allocation-free once the
// writer's line buffer has grown: encoding, checksum and the one Write. A
// repeated decision takes the checkpoint memo and its repeated duals are
// written as duals_repeat; a changing one (two decisions and two dual
// vectors in turn) misses the memo on every commit and refills it, and the
// writer's copy of the duals, in place.
func TestCommitZeroAlloc(t *testing.T) {
	for _, repeat := range []bool{true, false} {
		w := NewWriter(io.Discard)
		base := time.Unix(1700000000, 0)
		w.SetClock(func() time.Time { return base })
		w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
		x, y, z := []float64{1.25, 3e-9, 4e22}, []float64{0.5}, []float64{7, 8}
		other := []float64{1.25, 3e-9, 4.5e22}
		slot := SlotRecord{
			InputsDigest: sampleDigest(1), DecisionDigest: Digest(x, y, z),
			AllocCost: 12.5, ReconfCost: 0.125, Status: StatusOK, Rung: "cache",
			DurNS: 20000, Iters: 3, Warm: true,
			Attr: &CostAttr{AllocT2: 8, AllocNet: 4.5, ReconfT2: 0.1, ReconfNet: 0.025,
				PerTier2: []float64{6, 6.5}, PerTier1: []float64{12.625}, OperLB: 10},
		}
		duals, otherDuals := Bits{0.5, 1e-300, 7}, Bits{0.5, 1e-300, 8}
		state := StateRecord{X: x, Y: y, Z: z, DecisionDigest: slot.DecisionDigest, Duals: duals}
		w.Commit(slot, state)
		allocs := testing.AllocsPerRun(100, func() {
			slot.Slot++
			state.Slot = slot.Slot
			if !repeat {
				state.X, other = other, state.X
				state.Duals, otherDuals = otherDuals, state.Duals
			}
			if w.memo.matches(state.X, state.Y, state.Z) != repeat {
				t.Fatalf("repeat=%v: memo match %v before commit %d", repeat, !repeat, slot.Slot)
			}
			w.Commit(slot, state)
		})
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("repeat=%v: Writer.Commit allocates %v times per call, want 0", repeat, allocs)
		}
	}
}

// TestCommitNaNWritesNothing pins that an unencodable record fails the
// whole commit: neither the slot line nor its state line is written.
func TestCommitNaNWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	n := buf.Len()
	w.Commit(SlotRecord{Slot: 0, InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK},
		StateRecord{Slot: 0, X: []float64{math.NaN()}})
	if err := w.Err(); err == nil {
		t.Fatal("NaN in a state record did not latch an error")
	}
	if buf.Len() != n {
		t.Fatalf("failed commit wrote %q", buf.Bytes()[n:])
	}
}

// TestCommitLinesMatchMarshal drives one Writer through a commit sequence
// that exercises the checkpoint memo — a repeated decision, a changed one,
// nil Z, empty vectors, and +0 against −0 — and checks every line it writes
// is json.Marshal of the stamped record plus its crc.
func TestCommitLinesMatchMarshal(t *testing.T) {
	negZero := math.Copysign(0, -1)
	states := []StateRecord{
		{X: []float64{1.5, 3e-9}, Y: []float64{0.25}, Z: []float64{7}},
		{X: []float64{1.5, 3e-9}, Y: []float64{0.25}, Z: []float64{7}}, // repeat
		{X: []float64{1.5, 3e-9}, Y: []float64{0.25}, Z: []float64{7}}, // repeat again
		{X: []float64{1.5, 3e-9}, Y: []float64{0.5}, Z: []float64{7}},  // changed
		{X: []float64{1.5, 3e-9}, Y: []float64{0.5}, Z: nil},           // nil Z
		{X: []float64{1.5, 3e-9}, Y: []float64{0.5}, Z: []float64{}},   // empty Z, not nil
		{X: []float64{}, Y: []float64{}, Z: []float64{}},
		{X: nil, Y: nil, Z: nil},
		{X: []float64{0}, Y: []float64{0}, Z: []float64{0}},
		{X: []float64{negZero}, Y: []float64{0}, Z: []float64{0}}, // −0 differs from +0
		{X: []float64{negZero}, Y: []float64{0}, Z: []float64{0}},
		{X: []float64{0}, Y: []float64{0}, Z: []float64{0}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	clock := fixedClock()
	w.SetClock(clock)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	want := fixedClock()
	want() // the header's tick
	var lines [][]byte
	for i, st := range states {
		d := Digest(st.X, st.Y, st.Z)
		slot := SlotRecord{Slot: i, InputsDigest: sampleDigest(float64(i)), DecisionDigest: d, Status: StatusOK}
		st.Slot, st.DecisionDigest = i, d
		n := buf.Len()
		w.Commit(slot, st)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		slot.Kind, slot.TimeNS = KindSlot, want().UnixNano()
		st.Kind, st.TimeNS = KindState, want().UnixNano()
		for _, rec := range []any{&slot, &st} {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, sealLine(payload, 0))
		}
		if got, exp := buf.Bytes()[n:], bytes.Join(lines[len(lines)-2:], nil); !bytes.Equal(got, exp) {
			t.Fatalf("commit %d wrote\n%s\nwant\n%s", i, got, exp)
		}
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("memoized journal does not re-read: %v", err)
	}
}

// TestCommitNaNLeavesMemoUnfilled pins that a checkpoint that cannot be
// encoded is not memoized, on a fresh writer and on one whose memo holds an
// earlier checkpoint.
func TestCommitNaNLeavesMemoUnfilled(t *testing.T) {
	nan := StateRecord{X: []float64{math.NaN()}, Y: []float64{1}, Z: []float64{2}}
	slot := SlotRecord{InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK}

	w := NewWriter(io.Discard)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	w.Commit(slot, nan)
	if w.Err() == nil {
		t.Fatal("NaN checkpoint did not latch an error")
	}
	if w.memo.ok {
		t.Fatalf("NaN checkpoint filled the memo with %q", w.memo.text)
	}

	good := StateRecord{X: []float64{1}, Y: []float64{2}, Z: []float64{3}}
	var m vectorMemo
	if _, err := good.appendJSONMemo(nil, &m, false); err != nil {
		t.Fatal(err)
	}
	text := string(m.text)
	if _, err := nan.appendJSONMemo(nil, &m, false); err == nil {
		t.Fatal("NaN checkpoint encoded")
	}
	if !m.matches(good.X, good.Y, good.Z) || string(m.text) != text {
		t.Fatalf("NaN checkpoint replaced the memo: %q", m.text)
	}
}

// TestCommitRepeatedDuals drives one Writer through checkpoints whose
// duals are new, repeated, changed, absent, back after an absence and
// repeated again. A repeat of the state line before it is written as
// duals_repeat — the line is json.Marshal of the record with Duals nil and
// DualsRepeat set — and anything else in full, and every prefix of the
// journal reads back with its last checkpoint's duals filled in bitwise.
func TestCommitRepeatedDuals(t *testing.T) {
	a, b := []float64{1.5, -2e-9, 3, 4}, []float64{1.5, -2e-9, 3, 5}
	seq := []struct {
		duals  []float64
		repeat bool
	}{
		{a, false}, {a, true}, {a, true}, {b, false}, {nil, false}, {b, false}, {b, true}, {a, false},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetClock(fixedClock())
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	want := fixedClock()
	want() // the header's tick
	x := []float64{1, 2}
	d := Digest(x, x, x)
	var cuts []int
	for i, c := range seq {
		slot := SlotRecord{Slot: i, InputsDigest: sampleDigest(float64(i)), DecisionDigest: d, Status: StatusOK}
		st := StateRecord{Slot: i, X: x, Y: x, Z: x, DecisionDigest: d, Duals: c.duals}
		if c.duals != nil {
			st.DualsSlot = i / 2
		}
		n := buf.Len()
		w.Commit(slot, st)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		slot.Kind, slot.TimeNS = KindSlot, want().UnixNano()
		st.Kind, st.TimeNS = KindState, want().UnixNano()
		if c.repeat {
			st.Duals, st.DualsRepeat = nil, true
		}
		var exp []byte
		for _, rec := range []any{&slot, &st} {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			exp = append(exp, sealLine(payload, 0)...)
		}
		if got := buf.Bytes()[n:]; !bytes.Equal(got, exp) {
			t.Fatalf("commit %d wrote\n%s\nwant\n%s", i, got, exp)
		}
		cuts = append(cuts, buf.Len())
	}
	for i, cut := range cuts {
		j, err := Read(bytes.NewReader(buf.Bytes()[:cut]))
		if err != nil {
			t.Fatalf("prefix through commit %d: %v", i, err)
		}
		if st := j.LastState; !sameBits(st.Duals, seq[i].duals) || (st.Duals == nil) != (seq[i].duals == nil) || st.DualsRepeat != seq[i].repeat {
			t.Errorf("prefix through commit %d: last checkpoint's duals %v (repeat %v), want %v (repeat %v)",
				i, st.Duals, st.DualsRepeat, seq[i].duals, seq[i].repeat)
		}
	}
}

// TestReadRejectsUnresolvableDuals pins the reader's checks on the duals
// fields: a duals_repeat line after a state line without duals, a line
// with both duals and duals_repeat, and a duals slot after the checkpoint's
// own slot or without duals are all errors.
func TestReadRejectsUnresolvableDuals(t *testing.T) {
	x := []float64{1}
	d := Digest(x, x, x)
	for _, tc := range []struct {
		name   string
		states []StateRecord
	}{
		{"repeat-after-none", []StateRecord{{}, {DualsRepeat: true}}},
		{"repeat-first", []StateRecord{{DualsRepeat: true}}},
		{"repeat-with-duals", []StateRecord{{Duals: Bits{1}}, {Duals: Bits{2}, DualsRepeat: true}}},
		{"duals-slot-ahead", []StateRecord{{Duals: Bits{1}, DualsSlot: 1}}},
		{"duals-slot-without-duals", []StateRecord{{DualsSlot: 1}, {DualsSlot: 1}}},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
		for i, st := range tc.states {
			st.Slot, st.X, st.Y, st.Z, st.DecisionDigest = i, x, x, x, d
			w.Commit(SlotRecord{Slot: i, InputsDigest: sampleDigest(1), DecisionDigest: d, Status: StatusOK}, st)
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: journal read without error:\n%s", tc.name, buf.Bytes())
		}
	}
}
