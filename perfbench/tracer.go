package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// maxSpans caps the spans a traced run keeps in memory; later ones are
// counted, not kept. The aggregates cover every span either way.
const maxSpans = 60000

// span is one interval the benchmark timed from outside the program. The
// journal spans of a slot are children of its "slot" span and carry the
// same slot id.
type span struct {
	Name    string `json:"name"`
	Slot    int    `json:"slot"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"`
}

// tracer keeps the traced run's spans in memory and sums the journal
// spans of the timed slots. It is used from the slot loop's goroutine only.
type tracer struct {
	origin  time.Time
	slot    int
	active  bool // inside a timed window
	spans   []span
	dropped int

	writes, writeBytes, writeNS int64
	fsyncs, fsyncNS             int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

func (t *tracer) slotSpan(slot int, start, end int64) {
	if t.active {
		t.add(span{Name: "slot", Slot: slot, StartNS: start, EndNS: end})
	}
}

func (t *tracer) journalWrite(start, end int64, n int) {
	if !t.active {
		return
	}
	t.writes++
	t.writeBytes += int64(n)
	t.writeNS += end - start
	t.add(span{Name: "journal.write", Slot: t.slot, Parent: "slot", StartNS: start, EndNS: end, Bytes: n})
}

func (t *tracer) journalFsync(start, end int64) {
	if !t.active {
		return
	}
	t.fsyncs++
	t.fsyncNS += end - start
	t.add(span{Name: "journal.fsync", Slot: t.slot, Parent: "slot", StartNS: start, EndNS: end})
}

// writeFile writes the kept spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
