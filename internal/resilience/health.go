package resilience

import (
	"fmt"
	"strings"
	"sync"
)

// Health aggregates the run's degradation state for liveness probes: the
// online pipeline records every committed slot's resilience outcome and the
// /healthz endpoint snapshots it. The nil *Health is the disabled state —
// every method no-ops — so the slot loop records unconditionally. Safe for
// concurrent recorders and snapshotters.
type Health struct {
	mu             sync.Mutex
	slots          int
	recovered      int
	degraded       int
	lastSlot       int
	lastStatus     string
	consecDegraded int
	failures       []string
}

// NewHealth returns an empty tracker.
func NewHealth() *Health { return &Health{lastSlot: -1} }

// Slot statuses accepted by RecordSlot, mirroring core's SlotStatus
// strings.
const (
	HealthOK        = "ok"
	HealthRecovered = "recovered"
	HealthDegraded  = "degraded"
)

// RecordSlot records the resilience outcome of one committed slot.
func (h *Health) RecordSlot(slot int, status string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.slots++
	h.lastSlot = slot
	h.lastStatus = status
	switch status {
	case HealthDegraded:
		h.degraded++
		h.consecDegraded++
	case HealthRecovered:
		h.recovered++
		h.consecDegraded = 0
	default:
		h.consecDegraded = 0
	}
	h.mu.Unlock()
}

// Fail marks a component permanently unhealthy, such as a failing disk
// under the journal. Unlike a degraded slot, which clears
// when the next slot solves, a failure sticks: the probe answers 503 until
// the process is replaced, because a controller that can no longer persist
// its commitments must not look healthy to its orchestrator.
func (h *Health) Fail(component string, err error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.failures = append(h.failures, component+": "+err.Error())
	h.mu.Unlock()
}

// HealthSnapshot is a point-in-time copy of the tracker, shaped for the
// /healthz JSON body.
type HealthSnapshot struct {
	// State is "idle" before the first slot, "degraded" while the most
	// recent slot was carried forward (Theorem 1's per-slot argument does
	// not cover it), and "ok" otherwise — including recovered slots, whose
	// fallback rung still solved the guarantee-relevant subproblem.
	State     string `json:"state"`
	Slots     int    `json:"slots"`
	Recovered int    `json:"recovered"`
	Degraded  int    `json:"degraded"`
	// LastSlot is the most recently committed slot index (-1 when idle).
	LastSlot   int    `json:"last_slot"`
	LastStatus string `json:"last_status,omitempty"`
	// ConsecutiveDegraded counts the current run of carried-forward slots;
	// nonzero exactly when State is "degraded".
	ConsecutiveDegraded int `json:"consecutive_degraded"`
	// Failures lists permanent component failures (the journal disk); any
	// entry forces State "failed" and a 503 probe.
	Failures []string `json:"failures,omitempty"`
	// Reason is a human-readable sentence explaining an unhealthy probe
	// (empty while healthy), so a 503 /healthz body can be read by a person
	// before it is parsed by a machine.
	Reason string `json:"reason,omitempty"`
}

// reason renders the unhealthy states as one sentence; healthy states yield
// the empty string.
func (s HealthSnapshot) reason() string {
	switch s.State {
	case HealthFailed:
		return "permanent component failure: " + strings.Join(s.Failures, "; ")
	case HealthDegraded:
		plural := ""
		if s.ConsecutiveDegraded != 1 {
			plural = "s"
		}
		return fmt.Sprintf("slot %d was carried forward (%d consecutive degraded slot%s; the competitive guarantee does not cover carried-forward slots)",
			s.LastSlot, s.ConsecutiveDegraded, plural)
	}
	return ""
}

// HealthFailed is the State of a tracker with a permanent component failure.
const HealthFailed = "failed"

// Healthy reports whether a probe should answer 200: the run is healthy
// unless it is currently inside a degraded streak or a component failed
// permanently.
func (s HealthSnapshot) Healthy() bool {
	return s.State != HealthDegraded && s.State != HealthFailed
}

// Snapshot copies the tracker's current state. On a nil tracker it returns
// the idle snapshot.
func (h *Health) Snapshot() HealthSnapshot {
	if h == nil {
		return HealthSnapshot{State: "idle", LastSlot: -1}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HealthSnapshot{
		State:               "idle",
		Slots:               h.slots,
		Recovered:           h.recovered,
		Degraded:            h.degraded,
		LastSlot:            h.lastSlot,
		LastStatus:          h.lastStatus,
		ConsecutiveDegraded: h.consecDegraded,
	}
	if h.slots > 0 {
		s.State = HealthOK
		if h.consecDegraded > 0 {
			s.State = HealthDegraded
		}
	}
	if len(h.failures) > 0 {
		s.State = HealthFailed
		s.Failures = append([]string(nil), h.failures...)
	}
	s.Reason = s.reason()
	return s
}
