package journal

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAlertRecordRoundTrip pins the alert record kind: written between header
// and footer (including interleaved with slot/state pairs), CRC'd, and read
// back field-exact without disturbing the footer's slot reconciliation.
func TestAlertRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetClock(fixedClock())
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	w.Alert(AlertRecord{
		Rule: "slo-burn-rate", Severity: SeverityWarn, State: AlertFiring,
		Value: 14.9, Threshold: 14.4, Reason: "burn 14.9x over both windows",
	})
	stateX, stateY, stateZ := []float64{1, 2}, []float64{0.5}, []float64{3}
	w.Slot(SlotRecord{
		Slot: 0, InputsDigest: sampleDigest(1),
		DecisionDigest: Digest(stateX, stateY, stateZ),
		AllocCost:      1, Status: StatusOK,
	})
	// An alert between a slot record and its state checkpoint must not break
	// the checkpoint's adjacency validation.
	w.Alert(AlertRecord{
		Rule: "competitive-ratio", Severity: SeverityCritical, State: AlertFiring,
		Value: 3.2, Threshold: 3,
	})
	writeState(w, StateRecord{
		Slot: 0, X: stateX, Y: stateY, Z: stateZ,
		DecisionDigest: Digest(stateX, stateY, stateZ),
	})
	w.Alert(AlertRecord{
		Rule: "slo-burn-rate", Severity: SeverityWarn, State: AlertResolved,
		Value: 0.2, Threshold: 14.4,
	})
	w.End(Footer{TotalCost: 1})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	j, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal with alerts does not validate: %v", err)
	}
	if len(j.Alerts) != 3 {
		t.Fatalf("got %d alerts, want 3", len(j.Alerts))
	}
	first := j.Alerts[0]
	if first.Kind != KindAlert || first.Rule != "slo-burn-rate" ||
		first.Severity != SeverityWarn || first.State != AlertFiring ||
		first.Value != 14.9 || first.Threshold != 14.4 ||
		first.Reason != "burn 14.9x over both windows" {
		t.Fatalf("first alert round-tripped wrong: %+v", first)
	}
	if first.TimeNS == 0 || first.CRC == "" {
		t.Fatalf("alert record missing writer stamps: %+v", first)
	}
	if j.Alerts[1].Severity != SeverityCritical || j.Alerts[2].State != AlertResolved {
		t.Fatalf("alert order lost: %+v", j.Alerts)
	}
	if len(j.Slots) != 1 || j.Footer == nil || j.LastState == nil {
		t.Fatalf("alerts disturbed the rest of the journal: %+v", j)
	}
}

// TestReaderRejectsBadAlert pins the alert taxonomy validation.
func TestReaderRejectsBadAlert(t *testing.T) {
	mk := func(alert AlertRecord) string {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SetClock(fixedClock())
		w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
		w.Alert(alert)
		w.End(Footer{})
		return buf.String()
	}
	cases := []struct {
		name  string
		alert AlertRecord
		want  string
	}{
		{"no rule", AlertRecord{Severity: SeverityWarn, State: AlertFiring}, "names no rule"},
		{"bad state", AlertRecord{Rule: "r", Severity: SeverityWarn, State: "flapping"}, "unknown alert state"},
		{"bad severity", AlertRecord{Rule: "r", Severity: "fatal", State: AlertFiring}, "unknown alert severity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(mk(tc.alert)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestFeedDropOldestUnderConcurrentCommits pins the Feed's drop-oldest
// accounting under the production shape: one journal writer hammered by
// Workers>1 committing goroutines while the subscriber reads nothing until
// every publisher has returned, so its buffer overflows and drops are
// certain. The invariant is exact — every published line is either
// delivered or counted dropped, so after the feed closes and the subscriber
// drains:
//
//	received + Dropped() == lines published
//
// Run under -race (the obs-serve make target).
func TestFeedDropOldestUnderConcurrentCommits(t *testing.T) {
	const workers, perWorker = 8, 128
	f := NewFeed(16)
	w := NewWriter(nil).Attach(f)

	_, ch, cancel := f.Subscribe()
	defer cancel()
	received := 0
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-release
		for range ch {
			received++
		}
	}()

	w.Begin(Header{Algorithm: "online", GoMaxProcs: workers, Workers: workers})
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				w.Slot(SlotRecord{
					Slot:           wk*perWorker + i,
					InputsDigest:   sampleDigest(float64(wk)),
					DecisionDigest: sampleDigest(float64(i)),
					Status:         StatusOK,
				})
			}
		}(wk)
	}
	wg.Wait()
	close(release)
	w.End(Footer{}) // closes the feed; subscriber channel drains then closes
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber never drained after feed close")
	}

	published := workers*perWorker + 2 // header + slots + footer
	dropped := int(f.Dropped())
	if dropped == 0 {
		t.Fatal("stalled subscriber dropped nothing; drop-oldest never ran")
	}
	if received+dropped != published {
		t.Fatalf("accounting leak: received %d + dropped %d != published %d",
			received, dropped, published)
	}
}

// TestAlertOutsideWindowDropped pins the watchdog contract: an Alert before
// Begin or after End is a counted drop, never a latched writer error — the
// watchdog ticks on its own clock and legitimately straddles the run window.
func TestAlertOutsideWindowDropped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := AlertRecord{Rule: "slo-burn-rate", Severity: SeverityWarn, State: AlertFiring, Value: 2, Threshold: 1}

	w.Alert(rec) // before Begin
	w.Begin(Header{Algorithm: "online", GoMaxProcs: 1, Workers: 1})
	w.Alert(rec) // inside the window: recorded
	w.End(Footer{})
	w.Alert(rec) // after End

	if err := w.Err(); err != nil {
		t.Fatalf("outside-window alerts latched an error: %v", err)
	}
	if got := w.DroppedAlerts(); got != 2 {
		t.Fatalf("DroppedAlerts = %d, want 2", got)
	}
	j, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Alerts) != 1 {
		t.Fatalf("journal carries %d alerts, want exactly the in-window one", len(j.Alerts))
	}
}

// writeState appends a lone state checkpoint: a shape Writer.Commit no
// longer produces (it writes a slot and its checkpoint together), but which
// journals from earlier writers carry and the reader must still accept.
func writeState(w *Writer, r StateRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	r.Kind = KindState
	r.TimeNS = w.now().UnixNano()
	w.write(r, true)
}
