// Package hist provides mergeable log-bucketed latency histograms with a
// zero-allocation, lock-free record path.
//
// Values (non-negative seconds) land in log-linear buckets: one octave per
// binary exponent, each split into 2^subBits linear sub-buckets taken from
// the top mantissa bits, HDR-histogram style. With subBits = 3 a bucket's
// relative width is at most 1/8, so any quantile read off the bucket edges
// carries at most ~12.5% relative error — far below the run-to-run noise of
// the latencies being measured, and independent of how many observations
// arrive.
//
// The layout is a fixed array of atomic counters, so Record performs no
// allocation and takes no lock (pinned by TestRecordAllocs), and two
// histograms recorded on different machines — or different goroutines —
// merge by adding counters. Merging is associative and commutative over
// everything Digest covers; only the floating-point Sum is order-dependent
// (float addition does not associate), which is why Digest excludes it.
package hist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync/atomic"
	"time"
)

const (
	// subBits is the number of mantissa bits used for linear sub-buckets
	// inside one octave: 2^subBits sub-buckets, relative width 2^-subBits.
	subBits = 3
	numSub  = 1 << subBits

	// minExp..maxExp is the binary-exponent range covered by regular
	// buckets: 2^-31 s (~0.47 ns) up to 2^(maxExp+1) s (32 s). Latencies
	// below the range land in the underflow bucket, above it (or +Inf) in
	// the overflow bucket.
	minExp = -31
	maxExp = 4

	numOctaves = maxExp - minExp + 1

	// NumBuckets is the fixed bucket count: underflow + regular + overflow.
	NumBuckets = numOctaves*numSub + 2

	underflowIdx = 0
	overflowIdx  = NumBuckets - 1
)

// Hist is a mergeable log-bucketed histogram of non-negative float64 values
// (by convention: seconds). All methods are safe for concurrent use; Record
// is lock-free and allocation-free. Use New — the zero value would report a
// min of 0 on an empty histogram.
type Hist struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Int64
	sumB   atomic.Uint64 // float64 bits, CAS-accumulated
	minB   atomic.Uint64 // float64 bits; non-negative floats order like their bits
	maxB   atomic.Uint64
}

// New returns an empty histogram ready to record.
func New() *Hist {
	h := &Hist{}
	h.minB.Store(math.Float64bits(math.Inf(1)))
	return h
}

// bucketIndex maps a value to its bucket. Negative, zero, and NaN values go
// to underflow (they are not latencies; recording them keeps Record total).
func bucketIndex(v float64) int {
	if !(v > 0) {
		return underflowIdx
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	switch {
	case exp < minExp:
		return underflowIdx
	case exp > maxExp:
		return overflowIdx
	}
	sub := int(bits >> (52 - subBits) & (numSub - 1))
	return 1 + (exp-minExp)*numSub + sub
}

// bucketUpper returns the inclusive upper bound of bucket i; the underflow
// bucket's bound is the smallest regular bucket's lower edge, the overflow
// bucket's is +Inf. Every bound is an exact float64, so formatting it is
// byte-stable across platforms.
func bucketUpper(i int) float64 {
	switch i {
	case underflowIdx:
		return math.Ldexp(1, minExp)
	case overflowIdx:
		return math.Inf(1)
	}
	i--
	exp := minExp + i/numSub
	sub := i % numSub
	return math.Ldexp(1+float64(sub+1)/numSub, exp)
}

// Record adds one observation. It allocates nothing (pinned by
// TestRecordAllocs) and takes no lock.
func (h *Hist) Record(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumB, v)
	atomicMinBits(&h.minB, math.Float64bits(v))
	atomicMaxBits(&h.maxB, math.Float64bits(v))
}

// RecordDuration records d in seconds.
func (h *Hist) RecordDuration(d time.Duration) { h.Record(d.Seconds()) }

// atomicAddFloat CAS-accumulates v into the float64 bits at b.
func atomicAddFloat(b *atomic.Uint64, v float64) {
	for {
		old := b.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if b.CompareAndSwap(old, next) {
			return
		}
	}
}

// atomicMinBits lowers b to bits if smaller. Bits of non-negative floats
// (including +Inf) order identically to the floats themselves.
func atomicMinBits(b *atomic.Uint64, bits uint64) {
	for {
		old := b.Load()
		if bits >= old || b.CompareAndSwap(old, bits) {
			return
		}
	}
}

func atomicMaxBits(b *atomic.Uint64, bits uint64) {
	for {
		old := b.Load()
		if bits <= old || b.CompareAndSwap(old, bits) {
			return
		}
	}
}

// Merge folds o into h bucket-by-bucket. Counts, min, and max merge exactly;
// the sums add in merge order, so only Sum may differ (in low-order bits)
// from recording the same observations interleaved.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	atomicAddFloat(&h.sumB, math.Float64frombits(o.sumB.Load()))
	atomicMinBits(&h.minB, o.minB.Load())
	atomicMaxBits(&h.maxB, o.maxB.Load())
}

// Count returns the total number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observations. Unlike every other accessor
// it is order-dependent in its floating-point low bits.
func (h *Hist) Sum() float64 { return math.Float64frombits(h.sumB.Load()) }

// Min returns the smallest observation (0 when empty).
func (h *Hist) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minB.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Hist) Max() float64 { return math.Float64frombits(h.maxB.Load()) }

// Quantile returns the q-quantile (0 < q ≤ 1) estimated from the bucket
// holding the nearest-rank observation: the bucket's upper bound, clamped to
// the exact observed [Min, Max]. Returns 0 on an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	v := math.Inf(1)
	// Every bucket below the minimum's is empty, so the walk starts there.
	// A latency histogram's minimum sits a hundred or more buckets up, and
	// every /metrics scrape takes three quantiles of every histogram
	// (Snapshot).
	for i := bucketIndex(h.Min()); i < NumBuckets; i++ {
		cum += int64(h.counts[i].Load())
		if cum >= rank {
			v = bucketUpper(i)
			break
		}
	}
	if mx := h.Max(); v > mx {
		v = mx
	}
	if mn := h.Min(); v < mn {
		v = mn
	}
	return v
}

// CountAtOrBelow counts observations whose bucket upper bound is ≤ v — the
// "good events" numerator of an SLO burn rate with objective v. Like every
// bucket read it is edge-quantized: an observation counts as good exactly
// when its whole bucket's upper bound clears the objective, so the estimate
// errs conservatively (toward "bad") by at most one bucket's relative width
// (~12.5%). Allocation-free and lock-free, so the watchdog can call it every
// tick.
func (h *Hist) CountAtOrBelow(v float64) int64 {
	// Every bucket below v's own ends at or below v, and v's own bucket ends
	// above it, so the count stops at v's bucket with no bound computed. Only
	// +Inf (and NaN, which no bound exceeds) take the overflow bucket too.
	end := bucketIndex(v)
	if !(v < math.Inf(1)) {
		end = NumBuckets
	}
	var cum int64
	for i := 0; i < end; i++ {
		cum += int64(h.counts[i].Load())
	}
	return cum
}

// Digest hashes everything that merges exactly — per-bucket counts, total
// count, min, and max — into a "sha256:…" string. The float Sum is excluded
// by design: float addition is not associative, so the sum of a merge can
// differ in its last bits from the sum of an interleaved recording even
// though the histograms are semantically identical. Two histograms with
// equal digests report identical counts and quantiles.
func (h *Hist) Digest() string {
	hash := sha256.New()
	var buf [8]byte
	for i := 0; i < NumBuckets; i++ {
		binary.LittleEndian.PutUint64(buf[:], h.counts[i].Load())
		hash.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(h.count.Load()))
	hash.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], h.minB.Load())
	hash.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], h.maxB.Load())
	hash.Write(buf[:])
	return "sha256:" + hex.EncodeToString(hash.Sum(nil))
}

// Bucket is one non-empty bucket in cumulative (Prometheus `le`) form.
type Bucket struct {
	// Upper is the bucket's inclusive upper bound in seconds (+Inf for the
	// overflow bucket).
	Upper float64
	// CumCount counts observations ≤ Upper.
	CumCount int64
}

// Stats is a point-in-time summary of one histogram.
type Stats struct {
	Count          int64
	Sum, Min, Max  float64
	P50, P99, P999 float64
	// Buckets holds the non-empty buckets in cumulative form, always ending
	// with the +Inf bucket when Count > 0.
	Buckets []Bucket
}

// Snapshot summarizes the histogram. Under concurrent recording the fields
// are each individually coherent (the record path updates them one atomic at
// a time), which is the usual scrape-time contract.
func (h *Hist) Snapshot() Stats {
	st := Stats{
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P99: h.Quantile(0.99), P999: h.Quantile(0.999),
	}
	if st.Count == 0 {
		return st
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		n := int64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		cum += n
		st.Buckets = append(st.Buckets, Bucket{Upper: bucketUpper(i), CumCount: cum})
	}
	if n := len(st.Buckets); n > 0 && !math.IsInf(st.Buckets[n-1].Upper, 1) {
		st.Buckets = append(st.Buckets, Bucket{Upper: math.Inf(1), CumCount: cum})
	}
	return st
}
