package journal

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// fuzzRecords builds a slot and a state record from one fuzz input. Every
// field takes a value derived from the input; the shape bits choose between
// the encodings' edge cases (nil Attr, nil/empty/filled slices, omitted
// optional fields).
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
}

// TestCommitZeroAlloc pins the commit path allocation-free once the
// writer's line buffer has grown: encoding, checksum and the one Write.
func TestCommitZeroAlloc(t *testing.T) {
	w := NewWriter(io.Discard)
	base := time.Unix(1700000000, 0)
	w.SetClock(func() time.Time { return base })
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	x, y, z := []float64{1.25, 3e-9, 4e22}, []float64{0.5}, []float64{7, 8}
	slot := SlotRecord{
		InputsDigest: sampleDigest(1), DecisionDigest: Digest(x, y, z),
		AllocCost: 12.5, ReconfCost: 0.125, Status: StatusOK, Rung: "cache",
		DurNS: 20000, Iters: 3, Warm: true,
		Attr: &CostAttr{AllocT2: 8, AllocNet: 4.5, ReconfT2: 0.1, ReconfNet: 0.025,
			PerTier2: []float64{6, 6.5}, PerTier1: []float64{12.625}, OperLB: 10},
	}
	state := StateRecord{X: x, Y: y, Z: z, DecisionDigest: slot.DecisionDigest}
	w.Commit(slot, state)
	allocs := testing.AllocsPerRun(100, func() {
		slot.Slot++
		state.Slot = slot.Slot
		w.Commit(slot, state)
	})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Writer.Commit allocates %v times per call, want 0", allocs)
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
