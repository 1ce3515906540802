// Package tsdb is a zero-dependency, fixed-memory, in-process time-series
// store: one ring buffer per metric, sized by resolution × retention at
// creation and never growing afterwards. One mutex per store guards every
// ring's points: the record path is allocation-free (pinned by
// TestRecordAllocs), the sampler takes the mutex once per tick for all its
// writes, and a range query holds it only while it copies one ring.
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
	"time"

	"soral/internal/obs"
)

// Series is one metric's ring of sampled points, safe for concurrent use:
// a series of a DB is guarded by the DB's points mutex. Memory is fixed at
// creation: len(ts) slots, never reallocated.
type Series struct {
	name string
	mu   *sync.Mutex // the owning DB's points mutex
	ts   []int64     // Unix-nanosecond sample times
	vs   []float64   // sampled values
	head int64       // points ever recorded
	next int         // slot of the next point: head % len(ts)
}

func newSeries(name string, capacity int) *Series {
	return &Series{
		name: name,
		mu:   new(sync.Mutex),
		ts:   make([]int64, capacity),
		vs:   make([]float64, capacity),
	}
}

// Name returns the series' metric name.
func (s *Series) Name() string { return s.name }

// Record appends one point, overwriting the oldest once the ring is full.
// Allocation-free (pinned by TestRecordAllocs).
func (s *Series) Record(tns int64, v float64) {
	s.mu.Lock()
	s.record(tns, v)
	s.mu.Unlock()
}

// record is Record for a caller that holds s.mu.
func (s *Series) record(tns int64, v float64) {
	s.ts[s.next] = tns
	s.vs[s.next] = v
	s.head++
	if s.next++; s.next == len(s.ts) {
		s.next = 0
	}
}

// Len returns the number of retained points (≤ capacity).
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(min(s.head, int64(len(s.ts))))
}

// Latest returns the most recent point (false when empty).
func (s *Series) Latest() (obs.TSPoint, bool) {
	pts := s.Since(math.MinInt64)
	if len(pts) == 0 {
		return obs.TSPoint{}, false
	}
	return pts[len(pts)-1], true
}

// Since returns the retained points with TNS >= sinceNS, oldest first.
func (s *Series) Since(sinceNS int64) []obs.TSPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == 0 {
		return nil
	}
	c := int64(len(s.ts))
	lo := max(0, s.head-c)
	pts := make([]obs.TSPoint, 0, s.head-lo)
	for i := lo; i < s.head; i++ {
		if t := s.ts[i%c]; t >= sinceNS {
			pts = append(pts, obs.TSPoint{TNS: t, V: s.vs[i%c]})
		}
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
	mu     sync.RWMutex // guards the series map
	series map[string]*Series
	points sync.Mutex // guards every series' ring
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
		s.mu = &db.points
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
