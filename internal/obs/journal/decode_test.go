package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestValidDigestMatchesRegexp holds the byte check to the regular
// expression it replaced.
func TestValidDigestMatchesRegexp(t *testing.T) {
	re := regexp.MustCompile(`^sha256:[0-9a-f]{64}$`)
	hex64 := strings.Repeat("0123456789abcdef", 4)
	for _, s := range []string{
		"",
		"sha256:",
		"sha256:" + hex64,
		"sha256:" + strings.ToUpper(hex64),
		"sha256:" + hex64[:63],
		"sha256:" + hex64 + "0",
		"sha256:" + hex64 + "\n",
		"sha256:" + hex64[:63] + "g",
		"SHA256:" + hex64,
		"sha512:" + hex64,
		"sha256;" + hex64,
		" sha256:" + hex64[1:],
		sampleDigest(1),
	} {
		if got, want := validDigest(s), re.MatchString(s); got != want {
			t.Errorf("validDigest(%q) = %v, regexp says %v", s, got, want)
		}
	}
}

// canonicalLines returns a slot and a state line as the writer writes them.
func canonicalLines() (slot, state []byte) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetClock(fixedClock())
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	header := buf.Len()
	x, y, z := []float64{24.999999999995644, 6.01404054829457e-7}, []float64{1e21}, []float64{math.Copysign(0, -1)}
	d := Digest(x, y, z)
	w.Commit(SlotRecord{Slot: 3, InputsDigest: sampleDigest(3), DecisionDigest: d,
		AllocCost: 93.411388406757, ReconfCost: 93411.38840675696, Status: StatusRecovered,
		Rung: "restart-center", DurNS: 20000, Iters: 60, Warm: true,
		Attr: &CostAttr{AllocT2: 80.3854913764638, AllocNet: 13.025897030293192, AllocT1: 1,
			ReconfT2: 80385.49137646377, ReconfNet: 13025.897030293188, ReconfT1: 2,
			PerTier2: []float64{0, 19504.976867850823}, PerTier1: []float64{2173.1538212205805},
			Slack: 1e-9, OperLB: 88.57609980590225, WarmIters: 5, ColdRefIters: 61}},
		StateRecord{Slot: 3, X: x, Y: y, Z: z, DecisionDigest: d})
	lines := bytes.SplitAfter(buf.Bytes()[header:], []byte("\n"))
	return bytes.TrimSuffix(lines[0], []byte("\n")), bytes.TrimSuffix(lines[1], []byte("\n"))
}

// TestCanonicalDecodeWriterLines checks that the writer's own lines take
// the fast path: a journal the writer wrote never needs json.Unmarshal for
// its slot and state records.
func TestCanonicalDecodeWriterLines(t *testing.T) {
	slot, state := canonicalLines()
	var sr SlotRecord
	if !decodeSlot(slot, &sr) {
		t.Fatalf("decodeSlot declined a writer line: %s", slot)
	}
	var m vectorMemo
	for pass := 0; pass < 2; pass++ { // parsed, then from the memo
		var st StateRecord
		if !decodeState(state, &st, &m) {
			t.Fatalf("pass %d: decodeState declined a writer line: %s", pass, state)
		}
		sameAsUnmarshal(t, state, &st)
	}
	sameAsUnmarshal(t, slot, &sr)
}

// sameAsUnmarshal fails t unless json.Unmarshal of line into a zero value
// of got's type succeeds and yields got exactly, down to the sign of zero
// and nil against empty slices.
func sameAsUnmarshal(t *testing.T, line []byte, got any) {
	t.Helper()
	want := reflect.New(reflect.TypeOf(got).Elem())
	if err := json.Unmarshal(line, want.Interface()); err != nil {
		t.Fatalf("%T: decoder accepted %q, json.Unmarshal fails: %v", got, line, err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want.Interface())
	if !reflect.DeepEqual(got, want.Interface()) || !bytes.Equal(gb, wb) {
		t.Fatalf("%T: decoder diverged from json.Unmarshal on %q\n got: %+v\nwant: %+v", got, line, got, want.Interface())
	}
}

// FuzzCanonicalDecode holds the reflection-free slot and state decoders to
// json.Unmarshal: on any bytes a decoder either declines or returns exactly
// the struct json.Unmarshal returns. The state decoder starts from a record
// holding stale vectors, as the reader reuses one, and decodes each line
// twice with one memo, so the second pass takes its vectors from the memo
// whenever the first filled it. Plain `go test` replays the corpus in
// testdata/fuzz/FuzzCanonicalDecode.
func FuzzCanonicalDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var sr SlotRecord
		if decodeSlot(line, &sr) {
			sameAsUnmarshal(t, line, &sr)
		}
		var m vectorMemo
		for pass := 0; pass < 2; pass++ {
			st := StateRecord{Kind: "stale", X: []float64{1, 2, 3}, Y: make([]float64, 0, 4), CRC: "stale"}
			if decodeState(line, &st, &m) {
				sameAsUnmarshal(t, line, &st)
			}
		}
	})
}

// FuzzJournalRecover feeds arbitrary bytes to Recover: it must never
// panic, and when it accepts a prefix, reading that prefix again must
// yield the same Journal. Plain `go test` replays the corpus in
// testdata/fuzz/FuzzJournalRecover.
func FuzzJournalRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j, info, err := Recover(bytes.NewReader(data))
		if err != nil {
			return
		}
		if info.GoodBytes < 0 || info.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes %d outside the %d-byte input", info.GoodBytes, len(data))
		}
		again, err := Read(bytes.NewReader(data[:info.GoodBytes]))
		if err != nil {
			t.Fatalf("accepted prefix does not re-read: %v", err)
		}
		if !reflect.DeepEqual(j, again) {
			t.Fatalf("prefix re-reads differently\nfirst: %+v\nagain: %+v", j, again)
		}
	})
}

// TestCanonicalDecodersCoverEveryField fills every field of SlotRecord (its
// CostAttr included) and StateRecord, encodes them as the writer does, and
// requires the canonical decoders to accept the lines and return the same
// records. A field added to a record without its decoder falls back to
// json.Unmarshal, which is correct but slow; this test fails until the
// decoder has it.
func TestCanonicalDecodersCoverEveryField(t *testing.T) {
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString("s" + string(rune('a'+i)))
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
	line, err := sr.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotSlot SlotRecord
	if !decodeSlot(line, &gotSlot) || !reflect.DeepEqual(gotSlot, sr) {
		t.Fatalf("decodeSlot does not round-trip every field of\n%s\ngot %+v", line, gotSlot)
	}
	if line, err = st.appendJSON(nil); err != nil {
		t.Fatal(err)
	}
	requireEveryKey(t, line, &st)
	var gotState StateRecord
	if !decodeState(line, &gotState, nil) || !reflect.DeepEqual(gotState, st) {
		t.Fatalf("decodeState does not round-trip every field of\n%s\ngot %+v", line, gotState)
	}
}
