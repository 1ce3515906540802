package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Syncer is the durability hook of a journal writer: anything with a Sync
// method (an *os.File) can be flushed to stable storage according to the
// writer's SyncPolicy.
type Syncer interface {
	Sync() error
}

// SyncPolicy says when the writer fsyncs the underlying file. The zero value
// never syncs (the pre-durability behavior: buffered writes, OS-scheduled
// flushes).
type SyncPolicy struct {
	// Every fsyncs once the records written since the last fsync reach N
	// (1 = after every write, 0 = disabled). A Commit's two records count
	// as two but share one write, so they get at most one fsync. The footer
	// always syncs regardless, so a finished run is durable the moment End
	// returns.
	Every int
	// OnCommit fsyncs at the commit points of the online run: once after
	// each Commit (a slot record and its state checkpoint, written
	// together), once after each lone Slot record, and after the footer.
	// The header may sit in the page cache until the first slot commits, but
	// no committed decision is ever lost.
	OnCommit bool
}

// SyncEveryRecord returns the strictest policy: one fsync per write (a
// Commit's slot and state records are one write).
func SyncEveryRecord() SyncPolicy { return SyncPolicy{Every: 1} }

// SyncOnCommit returns the default durable policy: fsync at commit points.
func SyncOnCommit() SyncPolicy { return SyncPolicy{OnCommit: true} }

// SyncEveryN returns the batched policy: one fsync per n records (plus the
// footer). A crash can lose at most the last n-1 records.
func SyncEveryN(n int) SyncPolicy { return SyncPolicy{Every: n} }

// ParseSyncPolicy maps the CLI spelling of a policy — "none", "commit",
// "every", or a positive integer N — to the policy itself.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncPolicy{}, nil
	case "commit":
		return SyncOnCommit(), nil
	case "every":
		return SyncEveryRecord(), nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return SyncPolicy{}, fmt.Errorf("journal: fsync policy %q (want none|commit|every|N)", s)
	}
	return SyncEveryN(n), nil
}

// Writer appends journal records as JSONL, each line carrying a trailing
// crc32c checksum over the rest of the record. All methods serialize on one
// mutex and each call reaches the underlying io.Writer in a single Write
// (Commit's two lines together), so a writer shared by parallel solver
// goroutines (Workers > 1) never interleaves or tears lines. The first
// error — a write or sync failure or a protocol misuse (slot before header, two headers, record
// after footer) — is latched, reported through the OnError hook, and all
// subsequent records are dropped; check Err after the run. The nil *Writer
// is the disabled state: every method is a no-op, so instrumented code
// records unconditionally.
type Writer struct {
	mu     sync.Mutex
	w      io.Writer
	feed   *Feed
	now    func() time.Time
	err    error
	opened bool
	closed bool

	syncer    Syncer
	policy    SyncPolicy
	sinceSync int
	onError   func(error)

	// Status tallies, used to fill footer fields the caller leaves zero.
	slots     int
	recovered int
	degraded  int

	// droppedAlerts counts Alert calls landing outside a Begin/End window
	// (watchdog transitions with no run to attribute them to).
	droppedAlerts int

	// line is the buffer each call builds its lines in, kept between calls
	// so a steady run commits its slots without allocating.
	line []byte
	// memo holds the last checkpoint's vectors and their text, so a Commit
	// that repeats the previous decision appends that text instead of
	// formatting it again.
	memo vectorMemo
	// duals holds the duals of the last state line written (dualsOK false
	// when it carried none), so a Commit repeating them writes
	// duals_repeat instead of their text.
	duals   []float64
	dualsOK bool
}

// DroppedAlerts reports how many alert records were dropped because they
// arrived outside a Begin/End window.
func (w *Writer) DroppedAlerts() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.droppedAlerts
}

// NewWriter wraps w in a journal writer. A nil w journals to the feed (or
// nowhere) only, which is how a live /runs stream without a durable file is
// set up.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, now: time.Now}
}

// ResumeWriter wraps w (a recovered journal file opened for append) in a
// writer that continues the run recorded in j: the header is already on
// disk, so Begin must not be called again, and the footer tallies start from
// the recovered prefix so End reconciles over the whole file.
func ResumeWriter(w io.Writer, j *Journal) *Writer {
	rw := &Writer{w: w, now: time.Now, opened: true}
	rw.slots = len(j.Slots)
	for _, s := range j.Slots {
		switch s.Status {
		case StatusRecovered:
			rw.recovered++
		case StatusDegraded:
			rw.degraded++
		}
	}
	return rw
}

// Attach tees every written line into the feed (for live /runs streaming).
// Call before Begin.
func (w *Writer) Attach(f *Feed) *Writer {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	w.feed = f
	w.mu.Unlock()
	return w
}

// WithSync arms the durability policy: s (usually the journal's *os.File) is
// synced according to p. Call before Begin. The writer calls s.Sync with its
// lock held, so s must not be a *Writer: a writer is never its own syncer.
func (w *Writer) WithSync(s Syncer, p SyncPolicy) *Writer {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	w.syncer = s
	w.policy = p
	w.mu.Unlock()
	return w
}

// OnError installs a hook invoked once with the first latched error (write
// failure, sync failure, or protocol misuse). The /healthz wiring uses it to
// flip the endpoint to 503 when the disk under the journal fails.
func (w *Writer) OnError(fn func(error)) *Writer {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	w.onError = fn
	w.mu.Unlock()
	return w
}

// SetClock replaces the writer's wall clock. For deterministic tests only;
// call it before Begin.
func (w *Writer) SetClock(now func() time.Time) {
	if w == nil || now == nil {
		return
	}
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// latch records the writer's first error and fires the hook. Caller holds
// w.mu.
func (w *Writer) latch(err error) {
	if w.err != nil || err == nil {
		return
	}
	w.err = err
	if w.onError != nil {
		w.onError(err)
	}
}

// write marshals one once-per-run record (header, footer, alert) to a single
// line, appending the crc field over the marshaled payload. Caller holds
// w.mu; rec's CRC field must be empty so it is omitted from the payload.
func (w *Writer) write(rec any, commit bool) {
	if w.err != nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		w.latch(err)
		return
	}
	w.line = sealLine(append(w.line[:0], payload...), 0)
	w.emit(w.line, 1, commit)
}

// emit writes buf, n complete record lines, to the underlying writer in one
// Write, applies the sync policy once for all of them, and tees each line
// into the feed. Caller holds w.mu.
func (w *Writer) emit(buf []byte, n int, commit bool) {
	if w.w != nil {
		if _, err := w.w.Write(buf); err != nil {
			w.latch(err)
			return
		}
		w.maybeSync(n, commit)
	}
	if w.feed != nil {
		for len(buf) > 0 {
			i := bytes.IndexByte(buf, '\n') + 1
			w.feed.Publish(buf[:i])
			buf = buf[i:]
		}
	}
}

// maybeSync applies the sync policy after n records reached the underlying
// writer in one Write. Caller holds w.mu.
func (w *Writer) maybeSync(n int, commit bool) {
	if w.syncer == nil || w.err != nil {
		return
	}
	due := commit && w.policy.OnCommit
	if w.policy.Every > 0 {
		w.sinceSync += n
		if w.sinceSync >= w.policy.Every {
			due = true
		}
	}
	if !due {
		return
	}
	w.sinceSync = 0
	if err := w.syncer.Sync(); err != nil {
		w.latch(fmt.Errorf("journal: fsync: %w", err))
	}
}

// Begin writes the run header. The writer stamps Kind, Version, and TimeNS.
func (w *Writer) Begin(h Header) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && (w.opened || w.closed) {
		w.latch(fmt.Errorf("journal: Begin called twice"))
		return
	}
	w.opened = true
	h.Kind = KindHeader
	h.Version = Version
	h.TimeNS = w.now().UnixNano()
	h.CRC = ""
	w.write(h, false)
}

// Slot appends one slot record without a state checkpoint (post-hoc
// recordings; the online run uses Commit). The writer stamps Kind and
// TimeNS.
func (w *Writer) Slot(r SlotRecord) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.openSlot(r.Status, "Slot") {
		return
	}
	b, err := w.appendSlot(w.line[:0], &r)
	w.line = b
	if err != nil {
		w.latch(err)
		return
	}
	w.emit(b, 1, true)
}

// Commit appends one committed slot: its slot record and, right behind it,
// the state checkpoint a crashed run resumes from. Both lines reach the
// underlying writer in one Write, followed by at most one fsync — the
// slot+state pair is the run's commit point. The writer stamps Kind and
// TimeNS on both records; the caller supplies the rest (core writes one
// Commit per decided slot). A record that cannot be encoded (a NaN or ±Inf
// value) latches an error and writes neither line. A checkpoint whose
// vectors repeat the previous one's bitwise reuses their encoded text, and
// one whose duals do writes duals_repeat in their place.
func (w *Writer) Commit(slot SlotRecord, state StateRecord) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.openSlot(slot.Status, "Commit") {
		return
	}
	b, err := w.appendSlot(w.line[:0], &slot)
	if err == nil {
		b, err = w.appendState(b, &state)
	}
	w.line = b
	if err != nil {
		w.latch(err)
		return
	}
	w.emit(b, 2, true)
}

// openSlot checks that a slot may be written (called by op) and tallies its
// status for the footer. It reports whether the record should be encoded.
// Caller holds w.mu.
func (w *Writer) openSlot(status, op string) bool {
	if w.err == nil && (!w.opened || w.closed) {
		w.latch(fmt.Errorf("journal: %s outside a Begin/End window", op))
		return false
	}
	w.slots++
	switch status {
	case StatusRecovered:
		w.recovered++
	case StatusDegraded:
		w.degraded++
	}
	return w.err == nil
}

// appendSlot stamps r and appends its sealed line to b. Caller holds w.mu.
func (w *Writer) appendSlot(b []byte, r *SlotRecord) ([]byte, error) {
	r.Kind = KindSlot
	r.TimeNS = w.now().UnixNano()
	r.CRC = ""
	start := len(b)
	b, err := r.appendJSON(b)
	if err != nil {
		return b, err
	}
	return sealLine(b, start), nil
}

// appendState stamps r and appends its sealed line to b. Caller holds w.mu.
func (w *Writer) appendState(b []byte, r *StateRecord) ([]byte, error) {
	r.Kind = KindState
	r.TimeNS = w.now().UnixNano()
	r.CRC = ""
	start := len(b)
	repeat := w.dualsOK && len(r.Duals) > 0 && sameBits(r.Duals, w.duals)
	b, err := r.appendJSONMemo(b, &w.memo, repeat)
	if err != nil {
		return b, err
	}
	switch {
	case repeat:
	case len(r.Duals) > 0:
		w.duals, w.dualsOK = append(w.duals[:0], r.Duals...), true
	case !r.DualsRepeat:
		w.dualsOK = false
	}
	return sealLine(b, start), nil
}

// Alert appends one watchdog alert record. The writer stamps Kind and
// TimeNS; the caller supplies the rule identity, severity, state, and the
// value/threshold pair. Alerts are not commit points (the durable decision
// trail does not depend on them), so they ride the ambient sync policy.
//
// Unlike the run-data record kinds, an Alert outside a Begin/End window is
// dropped (counted in DroppedAlerts), not an error: the watchdog samples on
// its own clock and legitimately observes transitions before a run opens or
// after it ends, when there is no run to attribute them to.
func (w *Writer) Alert(r AlertRecord) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.opened || w.closed {
		w.droppedAlerts++
		return
	}
	r.Kind = KindAlert
	r.TimeNS = w.now().UnixNano()
	r.CRC = ""
	w.write(r, false)
}

// End writes the run footer and closes the journal. The writer stamps Kind
// and TimeNS and fills Slots, Recovered, and Degraded from its own tallies
// when the caller leaves them zero, so footers always reconcile with the
// slot records the reader checks them against. The footer is always synced
// when a syncer is armed: a finished run is durable before End returns.
func (w *Writer) End(f Footer) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && (!w.opened || w.closed) {
		w.latch(fmt.Errorf("journal: End outside a Begin window"))
		return
	}
	w.closed = true
	f.Kind = KindFooter
	if f.Slots == 0 {
		f.Slots = w.slots
	}
	if f.Recovered == 0 {
		f.Recovered = w.recovered
	}
	if f.Degraded == 0 {
		f.Degraded = w.degraded
	}
	f.TimeNS = w.now().UnixNano()
	f.CRC = ""
	if w.syncer != nil && w.policy == (SyncPolicy{}) {
		// Even the never-sync policy makes the completed run durable.
		w.policy = SyncOnCommit()
	}
	w.write(f, true)
	if w.syncer != nil && w.err == nil && w.sinceSync != 0 {
		// An every-N policy can leave the footer off-stride; sync it anyway.
		w.sinceSync = 0
		if err := w.syncer.Sync(); err != nil {
			w.latch(fmt.Errorf("journal: fsync: %w", err))
		}
	}
	if w.feed != nil {
		w.feed.Close()
	}
}

// Sync flushes the underlying file to stable storage now, regardless of
// policy. A failure latches like any write error.
func (w *Writer) Sync() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.syncer != nil && w.err == nil {
		if err := w.syncer.Sync(); err != nil {
			w.latch(fmt.Errorf("journal: fsync: %w", err))
		}
	}
	return w.err
}

// Close syncs and returns the writer's final error state. It does not close
// the underlying file (the caller owns it), but after Close every latched
// flush failure is visible — a journal whose Close returns nil is durable.
func (w *Writer) Close() error {
	return w.Sync()
}

// Err returns the latched first error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// feedBuffer bounds a subscriber's unread backlog; a consumer that falls
// further behind than this loses the oldest unread lines (the durable file,
// not the live stream, is the record).
const feedBuffer = 256

// Feed broadcasts journal lines to live subscribers (the /runs endpoint)
// and retains the most recent lines so a late subscriber sees the run so
// far. It is safe for concurrent publishers and subscribers.
type Feed struct {
	mu      sync.Mutex
	recent  [][]byte
	next    int
	cap     int
	subs    map[chan []byte]struct{}
	closed  bool
	dropped int64
}

// NewFeed returns a feed retaining up to capacity recent lines (default
// 4096 when capacity <= 0).
func NewFeed(capacity int) *Feed {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Feed{cap: capacity, subs: map[chan []byte]struct{}{}}
}

// Publish broadcasts one line (retaining a copy). Slow subscribers drop
// their oldest unread line rather than block the publisher: the solver's
// slot loop must never wait on a stalled HTTP client.
func (f *Feed) Publish(line []byte) {
	cp := append([]byte(nil), line...)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if len(f.recent) < f.cap {
		f.recent = append(f.recent, cp)
	} else {
		f.recent[f.next] = cp
		f.next = (f.next + 1) % f.cap
	}
	for ch := range f.subs {
		select {
		case ch <- cp:
		default:
			select {
			case <-ch:
				f.dropped++
			default:
			}
			select {
			case ch <- cp:
			default:
				f.dropped++
			}
		}
	}
}

// Dropped counts lines lost to slow subscribers since the feed was created
// (each drop-oldest eviction and each undeliverable line counts once). The
// /metrics exposition mirrors it so a stalled consumer is visible.
func (f *Feed) Dropped() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Subscribers returns the number of live subscribers.
func (f *Feed) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Subscribe returns the retained lines so far, a channel of subsequent
// lines (closed when the feed closes), and a cancel function the subscriber
// must call when done.
func (f *Feed) Subscribe() (recent [][]byte, ch <-chan []byte, cancel func()) {
	c := make(chan []byte, feedBuffer)
	f.mu.Lock()
	recent = make([][]byte, 0, len(f.recent))
	recent = append(recent, f.recent[f.next:]...)
	recent = append(recent, f.recent[:f.next]...)
	if f.closed {
		close(c)
	} else {
		f.subs[c] = struct{}{}
	}
	f.mu.Unlock()
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			f.mu.Lock()
			if _, ok := f.subs[c]; ok {
				delete(f.subs, c)
				close(c)
			}
			f.mu.Unlock()
		})
	}
	return recent, c, cancel
}

// Close marks the run finished: every subscriber channel is closed and
// subsequent publishes are dropped. Closing twice is harmless.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for ch := range f.subs {
		close(ch)
		delete(f.subs, ch)
	}
}
