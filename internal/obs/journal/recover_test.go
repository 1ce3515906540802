package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// footerless builds a valid v2 journal that ends mid-run: header, n slot
// records, each followed by its state checkpoint, and no footer.
func footerless(n int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	for i := 0; i < n; i++ {
		x, y, z := []float64{float64(i)}, []float64{1}, []float64{2}
		d := Digest(x, y, z)
		w.Commit(SlotRecord{Slot: i, InputsDigest: sampleDigest(float64(i)), DecisionDigest: d, Status: StatusOK},
			StateRecord{Slot: i, X: x, Y: y, Z: z, DecisionDigest: d})
	}
	if err := w.Err(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestReadTornTailTyped(t *testing.T) {
	full := footerless(3)
	// Cut the final line (slot 2's state record) in half: a torn write.
	torn := full[:len(full)-20]
	_, err := Read(bytes.NewReader(torn))
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("err = %v, want ErrTornTail", err)
	}
	var tte *TornTailError
	if !errors.As(err, &tte) {
		t.Fatalf("err = %T, want *TornTailError", err)
	}
	if tte.LastGoodSlot != 2 {
		t.Fatalf("LastGoodSlot = %d, want 2 (slot record survived, state torn)", tte.LastGoodSlot)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	full := footerless(3)
	cut := 25 // tears the final state record
	torn := full[:len(full)-cut]
	j, info, err := Recover(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !info.Torn || info.Complete {
		t.Fatalf("info = %+v, want Torn && !Complete", info)
	}
	if len(j.Slots) != 3 || info.LastSlot != 2 {
		t.Fatalf("prefix has %d slots, last %d; want 3 slots, last 2", len(j.Slots), info.LastSlot)
	}
	// The dropped state checkpoint must not leak: slot 1's checkpoint is now
	// the latest durable one.
	if j.LastState == nil || j.LastState.Slot != 1 {
		t.Fatalf("LastState = %+v, want slot 1's checkpoint", j.LastState)
	}
	if got := info.GoodBytes + info.DroppedBytes; got != int64(len(torn)) {
		t.Fatalf("GoodBytes+DroppedBytes = %d, want %d", got, len(torn))
	}
	// The declared good prefix must itself read cleanly.
	if _, err := Read(bytes.NewReader(torn[:info.GoodBytes])); err != nil {
		t.Fatalf("good prefix does not validate: %v", err)
	}
}

func TestRecoverRejectsMidFileCorruption(t *testing.T) {
	full := footerless(2)
	// Flip a byte in the FIRST slot record — valid records follow, so this
	// is corruption, not a torn tail.
	i := bytes.Index(full, []byte(`"status":"ok"`))
	corrupt := append([]byte{}, full...)
	corrupt[i+11] = 'x'
	if _, _, err := Recover(bytes.NewReader(corrupt)); err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("mid-file corruption: err = %v, want hard error", err)
	}
	if _, err := Read(bytes.NewReader(corrupt)); err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("Read mid-file corruption: err = %v, want hard error", err)
	}
}

func TestRecoverTornHeaderIsFatal(t *testing.T) {
	full := footerless(1)
	nl := bytes.IndexByte(full, '\n')
	if _, _, err := Recover(bytes.NewReader(full[:nl-5])); err == nil ||
		!strings.Contains(err.Error(), "no header") {
		t.Fatalf("torn header: err = %v, want no-header error", err)
	}
}

func TestRecoverCleanJournals(t *testing.T) {
	// Complete run: footer present, nothing to repair.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	w.Slot(SlotRecord{Slot: 0, InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK})
	w.End(Footer{TotalCost: 1})
	j, info, err := Recover(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn || !info.Complete || info.LastSlot != 0 || j.Footer == nil {
		t.Fatalf("clean complete journal: info = %+v", info)
	}

	// Crash before the first slot: a durable header and nothing else.
	hdr := footerless(0)
	j, info, err = Recover(bytes.NewReader(hdr))
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn || info.Complete || info.LastSlot != -1 || len(j.Slots) != 0 {
		t.Fatalf("header-only journal: info = %+v", info)
	}
}

func TestRecoverFileTruncatesAndRepairs(t *testing.T) {
	dir := t.TempDir()

	// Torn tail: the file must shrink to exactly the good prefix.
	torn := filepath.Join(dir, "torn.jsonl")
	full := footerless(2)
	if err := os.WriteFile(torn, full[:len(full)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err := RecoverFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(torn)
	if st.Size() != info.GoodBytes {
		t.Fatalf("file is %d bytes after recovery, want %d", st.Size(), info.GoodBytes)
	}
	if _, err := os.ReadFile(torn); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverFile(torn); err != nil {
		t.Fatalf("second recovery of a repaired file: %v", err)
	}

	// Missing final newline on a valid record: restored in place.
	noNL := filepath.Join(dir, "nonl.jsonl")
	if err := os.WriteFile(noNL, bytes.TrimSuffix(footerless(2), []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	j, info, err := RecoverFile(noNL)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Slots) != 2 || info.Torn {
		t.Fatalf("newline-less final record must survive: %d slots, info %+v", len(j.Slots), info)
	}
	b, err := os.ReadFile(noNL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(b, []byte("\n")) {
		t.Fatal("final newline not restored")
	}
	if _, err := Read(bytes.NewReader(b)); err != nil {
		t.Fatalf("repaired file does not validate: %v", err)
	}
}

func TestReadAcceptsVersion1(t *testing.T) {
	d := sampleDigest(1)
	v1 := fmt.Sprintf(`{"kind":"header","v":1,"algorithm":"online","gomaxprocs":1,"workers":1,"t_ns":1}
{"kind":"slot","slot":0,"inputs_digest":"%s","decision_digest":"%s","alloc_cost":1,"reconf_cost":0,"status":"ok","t_ns":2}
{"kind":"footer","slots":1,"recovered":0,"degraded":0,"total_cost":1,"t_ns":3}
`, d, d)
	j, err := Read(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 journal rejected: %v", err)
	}
	if j.Header.Version != 1 || len(j.Slots) != 1 || j.Footer == nil {
		t.Fatalf("v1 journal parsed wrong: %+v", j)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{
		{"none", SyncPolicy{}},
		{"commit", SyncPolicy{OnCommit: true}},
		{"every", SyncPolicy{Every: 1}},
		{"16", SyncPolicy{Every: 16}},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "0", "-3", "always"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("ParseSyncPolicy(%q) accepted", bad)
		}
	}
}

// countSyncer counts Sync calls and can be armed to fail.
type countSyncer struct {
	n    int
	fail error
}

func (s *countSyncer) Sync() error {
	s.n++
	return s.fail
}

func TestSyncPolicyApplied(t *testing.T) {
	// record journals a header, slots slot commits and a footer, each commit
	// either a lone Slot record or a Commit (slot record plus its state
	// checkpoint in one write), and returns the number of fsyncs.
	record := func(p SyncPolicy, slots int, commit bool) int {
		var buf bytes.Buffer
		s := &countSyncer{}
		w := NewWriter(&buf).WithSync(s, p)
		w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
		for i := 0; i < slots; i++ {
			sr := SlotRecord{Slot: i, InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK}
			if commit {
				w.Commit(sr, StateRecord{Slot: i, X: []float64{1}, DecisionDigest: sampleDigest(2)})
			} else {
				w.Slot(sr)
			}
		}
		w.End(Footer{})
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return s.n
	}
	cases := []struct {
		name   string
		p      SyncPolicy
		commit bool
		want   int
	}{
		// every-record: header + 3 slots + footer.
		{"every-record/slot", SyncEveryRecord(), false, 5},
		// on-commit: 3 slots + footer (header rides with the first commit).
		{"on-commit/slot", SyncOnCommit(), false, 4},
		// every-2: records 2 and 4 of 5, plus the forced footer sync.
		{"every-2/slot", SyncEveryN(2), false, 3},
		// never: the footer alone is still forced durable.
		{"never/slot", SyncPolicy{}, false, 1},
		// A Commit's two records share one write and at most one fsync.
		// every-record: header, one per commit, footer.
		{"every-record/commit", SyncEveryRecord(), true, 5},
		// on-commit: one per commit plus the footer.
		{"on-commit/commit", SyncOnCommit(), true, 4},
		// every-2 counts records: header+commit reaches 3, then each commit
		// reaches 2; the footer's count of 1 is synced by End.
		{"every-2/commit", SyncEveryN(2), true, 4},
		// every-5: records 1+2+2 reach 5 at the second commit; the third
		// commit and the footer are synced by End.
		{"every-5/commit", SyncEveryN(5), true, 2},
		// never: the footer alone.
		{"never/commit", SyncPolicy{}, true, 1},
	}
	for _, tc := range cases {
		if n := record(tc.p, 3, tc.commit); n != tc.want {
			t.Errorf("%s synced %d times, want %d", tc.name, n, tc.want)
		}
	}
}

func TestWriterErrorHookFiresOnce(t *testing.T) {
	var hooked []error
	s := &countSyncer{fail: errors.New("disk gone")}
	var buf bytes.Buffer
	w := NewWriter(&buf).WithSync(s, SyncEveryRecord()).OnError(func(err error) {
		hooked = append(hooked, err)
	})
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	w.Slot(SlotRecord{Slot: 0, InputsDigest: sampleDigest(1), DecisionDigest: sampleDigest(2), Status: StatusOK})
	w.End(Footer{})
	if len(hooked) != 1 {
		t.Fatalf("hook fired %d times, want once", len(hooked))
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("Close = %v, want the latched fsync failure", err)
	}
}

func TestResumeWriterReconcilesFooter(t *testing.T) {
	prefix := footerless(2)
	j, info, err := Recover(bytes.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSlot != 1 {
		t.Fatalf("LastSlot = %d, want 1", info.LastSlot)
	}
	var tail bytes.Buffer
	w := ResumeWriter(&tail, j)
	w.Slot(SlotRecord{Slot: 2, InputsDigest: sampleDigest(9), DecisionDigest: sampleDigest(8), Status: StatusRecovered})
	w.End(Footer{TotalCost: 3})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	whole := append(append([]byte{}, prefix...), tail.Bytes()...)
	full, err := Read(bytes.NewReader(whole))
	if err != nil {
		t.Fatalf("resumed journal does not validate: %v", err)
	}
	if full.Footer == nil || full.Footer.Slots != 3 || full.Footer.Recovered != 1 {
		t.Fatalf("footer = %+v, want 3 slots / 1 recovered", full.Footer)
	}
	// Begin on a resumed writer is a protocol error: the header is on disk.
	w2 := ResumeWriter(&bytes.Buffer{}, j)
	w2.Begin(Header{Algorithm: "online"})
	if err := w2.Err(); err == nil {
		t.Fatal("Begin on a resumed writer must latch an error")
	}
}
