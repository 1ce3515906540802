// Package tsdb is a zero-dependency, fixed-memory, in-process time-series
// store: one ring buffer per metric, sized by resolution × retention at
// creation and never growing afterwards. The record path is lock-free and
// allocation-free (a single writer — the sampler — stores into atomic
// slots; pinned by TestRecordAllocs), and readers never block the writer:
// range queries read the ring optimistically and discard any slot the
// writer lapped mid-read, seqlock style.
//
// The store is deliberately not a database: no files, no compaction, no
// labels. It exists so a long-lived soral process can answer "what did
// this gauge do over the last fifteen minutes" — the input of the watch
// rule engine and the /timeseries endpoint — without an external scraper.
package tsdb

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soral/internal/obs"
)

// Series is one metric's ring of sampled points. The write side assumes a
// single writer (the owning DB's sampler goroutine); reads are safe from any
// goroutine. Memory is fixed at creation: len(ts) slots, never reallocated.
type Series struct {
	name string
	ts   []atomic.Int64  // Unix-nanosecond sample times
	vs   []atomic.Uint64 // float64 bits
	head atomic.Int64    // points ever recorded; slot = (head-1) % len
	// started counts the points whose write has begun: it runs one ahead of
	// head while Record is storing a slot, so readers can tell which slots
	// were being overwritten during their read.
	started atomic.Int64
}

func newSeries(name string, capacity int) *Series {
	return &Series{
		name: name,
		ts:   make([]atomic.Int64, capacity),
		vs:   make([]atomic.Uint64, capacity),
	}
}

// Name returns the series' metric name.
func (s *Series) Name() string { return s.name }

// Record appends one point, overwriting the oldest once the ring is full.
// Lock-free and allocation-free (pinned by TestRecordAllocs); callers must
// serialize (single writer).
func (s *Series) Record(tns int64, v float64) {
	i := s.head.Load()
	s.started.Store(i + 1)
	slot := int(i % int64(len(s.ts)))
	s.ts[slot].Store(tns)
	s.vs[slot].Store(math.Float64bits(v))
	s.head.Store(i + 1)
}

// Len returns the number of retained points (≤ capacity).
func (s *Series) Len() int {
	n := s.head.Load()
	if c := int64(len(s.ts)); n > c {
		return int(c)
	}
	return int(n)
}

// Latest returns the most recent point (false when empty).
func (s *Series) Latest() (obs.TSPoint, bool) {
	pts := s.Since(math.MinInt64)
	if len(pts) == 0 {
		return obs.TSPoint{}, false
	}
	return pts[len(pts)-1], true
}

// Since returns the retained points with TNS >= sinceNS, oldest first. The
// read is optimistic: any slot the writer overwrote mid-read is discarded by
// re-checking the head afterwards, so a torn point is never returned.
func (s *Series) Since(sinceNS int64) []obs.TSPoint {
	h0 := s.head.Load()
	if h0 == 0 {
		return nil
	}
	c := int64(len(s.ts))
	lo := int64(0)
	if h0 > c {
		lo = h0 - c
	}
	pts := make([]obs.TSPoint, 0, h0-lo)
	idx := make([]int64, 0, h0-lo)
	for i := lo; i < h0; i++ {
		slot := int(i % c)
		t := s.ts[slot].Load()
		v := math.Float64frombits(s.vs[slot].Load())
		if t >= sinceNS {
			pts = append(pts, obs.TSPoint{TNS: t, V: v})
			idx = append(idx, i)
		}
	}
	// Indices the writer lapped during the read (i < s1-c) may be torn.
	s1 := s.started.Load()
	if s1-c > lo {
		keep := pts[:0]
		for k, i := range idx {
			if i >= s1-c {
				keep = append(keep, pts[k])
			}
		}
		pts = keep
	}
	return pts
}

// Options configures a DB's per-series rings.
type Options struct {
	// Resolution is the intended sampling period (default 1s). The store
	// does not enforce it — the sampler's ticker does — but capacity is
	// derived from it.
	Resolution time.Duration
	// Retention is the window each series must cover (default 15m).
	// Capacity = Retention / Resolution, floored at 16 points.
	Retention time.Duration
}

// DB is a set of named series sharing one ring capacity. Series are created
// on first Record through the DB and live for the process lifetime; memory
// is bounded by (number of distinct metric names) × capacity.
type DB struct {
	mu     sync.RWMutex
	series map[string]*Series
	cap    int
	opts   Options
}

// New returns an empty store. Zero options select 1s resolution and 15m
// retention (900 points per series).
func New(opts Options) *DB {
	if opts.Resolution <= 0 {
		opts.Resolution = time.Second
	}
	if opts.Retention <= 0 {
		opts.Retention = 15 * time.Minute
	}
	capacity := int(opts.Retention / opts.Resolution)
	if capacity < 16 {
		capacity = 16
	}
	return &DB{series: map[string]*Series{}, cap: capacity, opts: opts}
}

// Resolution returns the configured sampling period.
func (db *DB) Resolution() time.Duration { return db.opts.Resolution }

// Capacity returns the per-series ring size.
func (db *DB) Capacity() int { return db.cap }

// Series returns (creating if needed) the named series. Creation takes the
// write lock only on first sight of a name; other lookups take the read
// lock. The Sampler looks each name up once and keeps the handle.
func (db *DB) Series(name string) *Series {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s = db.series[name]; s == nil {
		s = newSeries(name, db.cap)
		db.series[name] = s
	}
	return s
}

// Get returns the named series or nil when it was never recorded.
func (db *DB) Get(name string) *Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[name]
}

// MetricNames lists the stored series, sorted. Part of obs.TimeseriesSource.
func (db *DB) MetricNames() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// QuerySince returns one series' retained points with TNS >= sinceNS, oldest
// first (nil for unknown series). Part of obs.TimeseriesSource.
func (db *DB) QuerySince(metric string, sinceNS int64) []obs.TSPoint {
	s := db.Get(metric)
	if s == nil {
		return nil
	}
	return s.Since(sinceNS)
}
