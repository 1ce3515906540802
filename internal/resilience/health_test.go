package resilience

import (
	"errors"
	"strings"
	"testing"
)

// TestHealthSnapshotReason pins the human-readable 503 body: healthy states
// carry no reason, degraded and failed states explain themselves in a
// sentence a person can act on.
func TestHealthSnapshotReason(t *testing.T) {
	h := NewHealth()
	if r := h.Snapshot().Reason; r != "" {
		t.Fatalf("idle reason = %q, want empty", r)
	}
	h.RecordSlot(0, HealthOK)
	if r := h.Snapshot().Reason; r != "" {
		t.Fatalf("healthy reason = %q, want empty", r)
	}
	h.RecordSlot(1, HealthDegraded)
	h.RecordSlot(2, HealthDegraded)
	snap := h.Snapshot()
	if !strings.Contains(snap.Reason, "slot 2") || !strings.Contains(snap.Reason, "2 consecutive degraded slots") {
		t.Fatalf("degraded reason = %q, want slot and streak named", snap.Reason)
	}
	h.Fail("journal", errors.New("disk gone"))
	snap = h.Snapshot()
	if !strings.Contains(snap.Reason, "journal") || !strings.Contains(snap.Reason, "disk gone") {
		t.Fatalf("failed reason = %q, want component and error named", snap.Reason)
	}
}
