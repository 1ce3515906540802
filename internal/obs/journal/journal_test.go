package journal

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClock ticks one millisecond per call from a fixed epoch so golden
// journals are byte-stable.
func fixedClock() func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		n++
		t := base.Add(time.Duration(n) * time.Millisecond)
		mu.Unlock()
		return t
	}
}

func sampleDigest(seed float64) string { return Digest([]float64{seed, seed + 1}) }

// TestJournalGolden pins the JSONL schema: record kinds, field names, field
// order, and omitempty behavior for header, slot, and footer lines. If this
// fails after an intentional schema change, regenerate with
// `go test ./internal/obs/journal -run JournalGolden -update` and call the
// change out in review — replay and the /runs stream parse these keys.
func TestJournalGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetClock(fixedClock())

	cfg := json.RawMessage(`{"spec":{"NumTier2":2},"eps":0.01,"algorithm":"online"}`)
	w.Begin(Header{
		Algorithm:    "online",
		ConfigDigest: DigestBytes(cfg),
		Config:       cfg,
		Seed:         1,
		GoMaxProcs:   4,
		Workers:      2,
	})
	w.Slot(SlotRecord{
		Slot:           0,
		InputsDigest:   sampleDigest(1),
		DecisionDigest: sampleDigest(2),
		AllocCost:      12.5,
		ReconfCost:     3.25,
		Status:         StatusOK,
		Attr: &CostAttr{
			AllocT2: 8, AllocNet: 4.5,
			ReconfT2: 3, ReconfNet: 0.25,
			PerTier2: []float64{11},
			PerTier1: []float64{4.75},
			OperLB:   10.5,
		},
	})
	stateX, stateY, stateZ := []float64{4, 5}, []float64{0.25}, []float64{1.5, 0}
	w.Commit(SlotRecord{
		Slot:           1,
		InputsDigest:   sampleDigest(3),
		DecisionDigest: Digest(stateX, stateY, stateZ),
		AllocCost:      11,
		ReconfCost:     0.5,
		Status:         StatusDegraded,
		Rung:           "carry-forward",
		DurNS:          2500000,
		Iters:          17,
	}, StateRecord{
		Slot: 1, X: stateX, Y: stateY, Z: stateZ,
		DecisionDigest: Digest(stateX, stateY, stateZ),
	})
	w.End(Footer{Degraded: 1, TotalCost: 27.25, TotalIters: 40, DurNS: 5000000})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "journal.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("journal drifted from golden schema.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// The golden bytes must round-trip through the validating reader.
	j, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden journal does not validate: %v", err)
	}
	if j.Header.Algorithm != "online" || len(j.Slots) != 2 || j.Footer == nil {
		t.Fatalf("golden journal parsed wrong: %+v", j)
	}
	if j.LastState == nil || j.LastState.Slot != 1 {
		t.Fatalf("golden journal lost its state checkpoint: %+v", j.LastState)
	}
	if !j.Replayable() {
		t.Error("golden journal embeds a config but reports not replayable")
	}
}

// TestWriterConcurrentSlots hammers one writer from many goroutines and
// asserts no interleaved or torn lines: every line parses alone, every slot
// appears exactly once. Run under -race (the obs-serve make target).
func TestWriterConcurrentSlots(t *testing.T) {
	const workers, perWorker = 16, 64
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: workers})

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				w.Slot(SlotRecord{
					Slot:           g*perWorker + i,
					InputsDigest:   sampleDigest(float64(g)),
					DecisionDigest: sampleDigest(float64(i)),
					Status:         StatusOK,
				})
			}
		}(g)
	}
	wg.Wait()
	w.End(Footer{})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := workers*perWorker + 2; len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	seen := make(map[int]bool)
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d torn or interleaved: %v\n%s", i+1, err, line)
		}
		if rec["kind"] == KindSlot {
			slot := int(rec["slot"].(float64))
			if seen[slot] {
				t.Fatalf("slot %d recorded twice", slot)
			}
			seen[slot] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("saw %d distinct slots, want %d", len(seen), workers*perWorker)
	}
}

func validJournal(slots ...SlotRecord) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	for _, s := range slots {
		w.Slot(s)
	}
	w.End(Footer{})
	return buf.Bytes()
}

// restamp recomputes every line's crc after a test mangled its content, so
// the reader's semantic validation (not the checksum) is what trips.
func restamp(b []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		content := bytes.TrimSuffix(line, []byte("\n"))
		if i := bytes.LastIndex(content, crcMarker); i >= 0 {
			payload := append(append([]byte{}, content[:i]...), '}')
			content = bytes.TrimSuffix(sealLine(payload, 0), []byte("\n"))
		}
		out = append(out, content...)
		if bytes.HasSuffix(line, []byte("\n")) {
			out = append(out, '\n')
		}
	}
	return out
}

func TestReaderRejectsMalformed(t *testing.T) {
	ok := SlotRecord{Slot: 0, InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK}
	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantErr string
	}{
		{"truncated header", func(b []byte) []byte { return nil }, "no header"},
		{"slot before header", func(b []byte) []byte {
			lines := bytes.SplitAfter(b, []byte("\n"))
			return bytes.Join([][]byte{lines[1], lines[0], lines[2]}, nil)
		}, "before the header"},
		{"bad digest", func(b []byte) []byte {
			return restamp(bytes.Replace(b, []byte("sha256:"), []byte("md5:xx"), 1))
		}, "malformed"},
		{"bad status", func(b []byte) []byte {
			return restamp(bytes.Replace(b, []byte(`"status":"ok"`), []byte(`"status":"mystery"`), 1))
		}, "unknown slot status"},
		{"footer miscount", func(b []byte) []byte {
			return restamp(bytes.Replace(b, []byte(`"kind":"footer","slots":1`), []byte(`"kind":"footer","slots":9`), 1))
		}, "footer claims"},
		{"checksum mismatch mid-file", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"alloc_cost"`), []byte(`"aIloc_cost"`), 1)
		}, "checksum mismatch"},
		{"record after footer", func(b []byte) []byte {
			lines := bytes.SplitAfter(b, []byte("\n"))
			return append(b, lines[1]...)
		}, "after the footer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.mangle(validJournal(ok))))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestReaderAcceptsFooterlessJournal(t *testing.T) {
	full := validJournal(SlotRecord{Slot: 0, InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK})
	lines := bytes.SplitAfter(full, []byte("\n"))
	j, err := Read(bytes.NewReader(bytes.Join(lines[:2], nil)))
	if err != nil {
		t.Fatalf("footerless journal rejected: %v", err)
	}
	if j.Footer != nil || len(j.Slots) != 1 {
		t.Fatalf("parsed %d slots, footer %v; want 1 slot, nil footer", len(j.Slots), j.Footer)
	}
}

func TestReaderRejectsNonMonotonicSlots(t *testing.T) {
	a := SlotRecord{Slot: 1, InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK}
	b := SlotRecord{Slot: 1, InputsDigest: sampleDigest(3), DecisionDigest: sampleDigest(4), Status: StatusOK}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	w.Slot(a)
	w.Slot(b)
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("err = %v, want strictly-increasing violation", err)
	}
}

func TestWriterProtocolErrors(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	w.Slot(SlotRecord{})
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("slot before Begin: err = %v", err)
	}
	w2 := NewWriter(&bytes.Buffer{})
	w2.Begin(Header{Algorithm: "x"})
	w2.Begin(Header{Algorithm: "x"})
	if err := w2.Err(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("double Begin: err = %v", err)
	}
	var nilW *Writer
	nilW.Begin(Header{})
	nilW.Slot(SlotRecord{})
	nilW.End(Footer{})
	if nilW.Err() != nil {
		t.Fatal("nil writer must be a silent no-op")
	}
}

func TestDigestDeterminismAndSensitivity(t *testing.T) {
	a := Digest([]float64{1, 2, 3}, []float64{4})
	b := Digest([]float64{1, 2, 3}, []float64{4})
	if a != b {
		t.Fatalf("digest not deterministic: %s vs %s", a, b)
	}
	if !strings.HasPrefix(a, "sha256:") || len(a) != len("sha256:")+64 {
		t.Fatalf("digest format %q", a)
	}
	if Digest([]float64{1, 2, 3, 4}) == a {
		t.Error("digest ignores group boundaries")
	}
	if Digest([]float64{1, 2, 3}, []float64{math.Nextafter(4, 5)}) == a {
		t.Error("digest ignores last-bit perturbations")
	}
	if Digest(nil, nil) != Digest([]float64{}, []float64{}) {
		t.Error("nil group must hash like an empty group")
	}
}

func TestFeedSubscribeReplayAndLive(t *testing.T) {
	f := NewFeed(8)
	f.Publish([]byte("a\n"))
	f.Publish([]byte("b\n"))
	recent, ch, cancel := f.Subscribe()
	defer cancel()
	if len(recent) != 2 || string(recent[0]) != "a\n" || string(recent[1]) != "b\n" {
		t.Fatalf("recent = %q", recent)
	}
	f.Publish([]byte("c\n"))
	select {
	case line := <-ch:
		if string(line) != "c\n" {
			t.Fatalf("live line = %q", line)
		}
	case <-time.After(time.Second):
		t.Fatal("live line never arrived")
	}
	f.Close()
	if _, open := <-ch; open {
		t.Fatal("channel still open after Close")
	}
	// Late subscriber after close still gets the retained lines.
	recent2, ch2, cancel2 := f.Subscribe()
	defer cancel2()
	if len(recent2) != 3 {
		t.Fatalf("late recent = %d lines, want 3", len(recent2))
	}
	if _, open := <-ch2; open {
		t.Fatal("late channel must be closed immediately")
	}
}

func TestFeedDropsWhenSubscriberStalls(t *testing.T) {
	f := NewFeed(4)
	_, ch, cancel := f.Subscribe()
	defer cancel()
	for i := 0; i < feedBuffer+50; i++ {
		f.Publish([]byte(fmt.Sprintf("line-%d\n", i)))
	}
	// The publisher must not have blocked; the subscriber sees a suffix.
	n := 0
	for {
		select {
		case <-ch:
			n++
		default:
			if n == 0 || n > feedBuffer {
				t.Fatalf("drained %d lines, want 1..%d", n, feedBuffer)
			}
			return
		}
	}
}
