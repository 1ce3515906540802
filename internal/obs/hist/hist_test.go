package hist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestRecordAllocs pins the zero-allocation record path. This is the
// contract that lets hot solver loops record latencies unconditionally.
func TestRecordAllocs(t *testing.T) {
	h := New()
	if n := testing.AllocsPerRun(1000, func() { h.Record(1.25e-3) }); n != 0 {
		t.Fatalf("Record allocated %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.RecordDuration(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("RecordDuration allocated %v allocs/op, want 0", n)
	}
}

// TestBucketBounds checks every recordable value lands in a bucket whose
// bounds straddle it, with relative width at most 2^-subBits.
func TestBucketBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10000; trial++ {
		exp := minExp + rng.Intn(numOctaves)
		v := math.Ldexp(1+rng.Float64(), exp)
		i := bucketIndex(v)
		if i <= underflowIdx || i >= overflowIdx {
			t.Fatalf("v=%g mapped to boundary bucket %d", v, i)
		}
		hi := bucketUpper(i)
		lo := bucketUpper(i - 1)
		if i-1 == underflowIdx {
			lo = math.Ldexp(1, minExp)
		}
		if v > hi || v < lo {
			t.Fatalf("v=%g outside bucket %d bounds (%g, %g]", v, i, lo, hi)
		}
		if rel := (hi - lo) / lo; rel > 1.0/numSub+1e-12 {
			t.Fatalf("bucket %d relative width %g exceeds %g", i, rel, 1.0/numSub)
		}
	}
}

func TestBucketEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, underflowIdx},
		{-1, underflowIdx},
		{math.NaN(), underflowIdx},
		{math.Ldexp(1, minExp-1), underflowIdx}, // below the covered range
		{math.Ldexp(1, minExp), 1},              // exact lower edge of the first octave
		{math.Ldexp(1, maxExp+1), overflowIdx},  // 32 s: above the covered range
		{math.Inf(1), overflowIdx},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	if u := bucketUpper(overflowIdx); !math.IsInf(u, 1) {
		t.Errorf("overflow upper bound = %g, want +Inf", u)
	}
}

func TestQuantiles(t *testing.T) {
	h := New()
	// 1000 observations at 1ms, 10 at 100ms: p50 near 1ms, p999 near 100ms.
	for i := 0; i < 1000; i++ {
		h.Record(1e-3)
	}
	for i := 0; i < 10; i++ {
		h.Record(100e-3)
	}
	if got := h.Quantile(0.50); math.Abs(got-1e-3)/1e-3 > 0.125 {
		t.Errorf("p50 = %g, want ~1e-3", got)
	}
	if got := h.Quantile(0.999); math.Abs(got-100e-3)/100e-3 > 0.125 {
		t.Errorf("p999 = %g, want ~0.1", got)
	}
	if got := h.Quantile(1.0); got != h.Max() {
		t.Errorf("p100 = %g, want exact max %g", got, h.Max())
	}
}

// TestQuantileMatchesFullWalk checks that Quantile, which starts its
// bucket walk at the minimum's bucket, returns what a walk from bucket 0
// returns, including for zero, underflow and overflow observations.
func TestQuantileMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 50; trial++ {
		h := New()
		for i := 0; i < 1+rng.Intn(200); i++ {
			v := math.Ldexp(1+rng.Float64(), -35+rng.Intn(42))
			if rng.Intn(20) == 0 {
				v = 0
			}
			h.Record(v)
		}
		for _, q := range []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int64(math.Ceil(q * float64(h.Count())))
			if rank < 1 {
				rank = 1
			}
			var cum int64
			want := math.Inf(1)
			for i := 0; i < NumBuckets; i++ {
				if cum += int64(h.counts[i].Load()); cum >= rank {
					want = bucketUpper(i)
					break
				}
			}
			want = math.Max(math.Min(want, h.Max()), h.Min())
			if got := h.Quantile(q); got != want {
				t.Fatalf("trial %d: q=%g: Quantile %g, full walk %g", trial, q, got, want)
			}
		}
	}
}

func TestEmpty(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram not all-zero: count=%d sum=%g min=%g max=%g p50=%g",
			h.Count(), h.Sum(), h.Min(), h.Max(), h.Quantile(0.5))
	}
	if st := h.Snapshot(); st.Count != 0 || len(st.Buckets) != 0 {
		t.Errorf("empty snapshot: %+v", st)
	}
}

// TestMergeAssociativity is the property test from the design contract:
// recording a value stream split across two histograms and merging must be
// digest-identical to recording the interleaved stream into one histogram,
// with the (digest-excluded) float sums agreeing within epsilon.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 100 + rng.Intn(400)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Ldexp(rng.Float64()+0.5, minExp+rng.Intn(numOctaves+4)-2)
		}
		a, b, whole := New(), New(), New()
		for i, v := range vals {
			whole.Record(v)
			if i%2 == 0 {
				a.Record(v)
			} else {
				b.Record(v)
			}
		}
		a.Merge(b)
		if a.Digest() != whole.Digest() {
			t.Fatalf("trial %d: merge(a,b) digest %s != interleaved digest %s",
				trial, a.Digest(), whole.Digest())
		}
		if diff := math.Abs(a.Sum() - whole.Sum()); diff > 1e-9*math.Abs(whole.Sum()) {
			t.Fatalf("trial %d: merged sum %g vs interleaved %g (diff %g)",
				trial, a.Sum(), whole.Sum(), diff)
		}
		if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() {
			t.Fatalf("trial %d: merged count/min/max diverge", trial)
		}
	}
}

// TestMergeOrderInvariant: merge(a,b) and merge(b,a) have equal digests.
func TestMergeOrderInvariant(t *testing.T) {
	mk := func(seed int64) *Hist {
		h := New()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Record(rng.Float64() * 0.01)
		}
		return h
	}
	ab, ba := mk(1), mk(2)
	ab.Merge(mk(2))
	ba.Merge(mk(1))
	if ab.Digest() != ba.Digest() {
		t.Fatalf("merge not commutative under digest: %s vs %s", ab.Digest(), ba.Digest())
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Float64() * 1e-2)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	st := h.Snapshot()
	if len(st.Buckets) == 0 {
		t.Fatal("no buckets after concurrent recording")
	}
	last := st.Buckets[len(st.Buckets)-1]
	if !math.IsInf(last.Upper, 1) || last.CumCount != workers*per {
		t.Fatalf("+Inf bucket %+v, want cumulative count %d", last, workers*per)
	}
	for i := 1; i < len(st.Buckets); i++ {
		if st.Buckets[i].CumCount < st.Buckets[i-1].CumCount ||
			st.Buckets[i].Upper <= st.Buckets[i-1].Upper {
			t.Fatalf("buckets not cumulative/increasing at %d: %+v", i, st.Buckets)
		}
	}
}

func TestSnapshotStats(t *testing.T) {
	h := New()
	for _, v := range []float64{1e-3, 2e-3, 3e-3} {
		h.Record(v)
	}
	st := h.Snapshot()
	if st.Count != 3 {
		t.Errorf("count = %d", st.Count)
	}
	if math.Abs(st.Sum-6e-3) > 1e-12 {
		t.Errorf("sum = %g", st.Sum)
	}
	if st.Min != 1e-3 || st.Max != 3e-3 {
		t.Errorf("min/max = %g/%g", st.Min, st.Max)
	}
}

// TestCountAtOrBelow pins the SLO "good events" counter: edge-quantized,
// conservative toward bad, exact against a brute-force bucket walk, and
// allocation-free.
func TestCountAtOrBelow(t *testing.T) {
	h := New()
	for i := 0; i < 200; i++ {
		h.Record(1e-3) // 1ms, comfortably under a 5ms objective
	}
	for i := 0; i < 50; i++ {
		h.Record(50e-3) // 50ms spikes, over the objective
	}
	good := h.CountAtOrBelow(5e-3)
	if good != 200 {
		t.Fatalf("CountAtOrBelow(5ms) = %d, want 200", good)
	}
	if all := h.CountAtOrBelow(math.Inf(1)); all != h.Count() {
		t.Fatalf("CountAtOrBelow(+Inf) = %d, want Count()=%d", all, h.Count())
	}
	if none := h.CountAtOrBelow(0); none != 0 {
		t.Fatalf("CountAtOrBelow(0) = %d, want 0", none)
	}
	// Conservative quantization: an objective inside the 1ms bucket must not
	// count the bucket (its upper bound exceeds the objective).
	if under := h.CountAtOrBelow(1e-3 * 0.99); under != 0 {
		t.Fatalf("CountAtOrBelow(just under 1ms bucket) = %d, want 0", under)
	}
	if n := testing.AllocsPerRun(1000, func() { h.CountAtOrBelow(5e-3) }); n != 0 {
		t.Fatalf("CountAtOrBelow allocated %v allocs/op, want 0", n)
	}
}

// TestCountAtOrBelowMatchesBucketWalk pins CountAtOrBelow to its definition,
// the sum over the buckets whose upper bound is ≤ v, with every bucket
// occupied and v on each bound, one ulp either side of it, and at 0, a
// negative, a subnormal, a huge finite value, +Inf and NaN.
func TestCountAtOrBelowMatchesBucketWalk(t *testing.T) {
	h := New()
	h.Record(0)
	for i := 0; i < NumBuckets-1; i++ {
		for k := 0; k <= i%3; k++ {
			h.Record(bucketUpper(i)) // the lower edge of bucket i+1
		}
	}
	walk := func(v float64) int64 {
		var cum int64
		for i := 0; i < NumBuckets && !(bucketUpper(i) > v); i++ {
			cum += int64(h.counts[i].Load())
		}
		return cum
	}
	probes := []float64{0, -1, 5e-324, 1e300, math.Inf(1), math.NaN()}
	for i := 0; i < NumBuckets-1; i++ {
		u := bucketUpper(i)
		probes = append(probes, u, math.Nextafter(u, 0), math.Nextafter(u, math.Inf(1)))
	}
	for _, v := range probes {
		if got, want := h.CountAtOrBelow(v), walk(v); got != want {
			t.Fatalf("CountAtOrBelow(%g) = %d, want %d", v, got, want)
		}
	}
}
