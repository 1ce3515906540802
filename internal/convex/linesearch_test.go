package convex

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"soral/internal/obs"
)

// logRatioRef is Σ ln(num_r/den_r) summed from m log1p terms: each value
// is split exactly by math.Frexp into a mantissa in [½, 1) and an
// exponent, the mantissas' difference is exact (they are within a factor
// 2), so ln(fn/fd) = log1p((fn−fd)/fd) is accurate to about eps, even for
// ratios within a few ulps of 1 and for subnormal values. The terms are
// summed in 256-bit precision. It also returns Σ|ln(num_r/den_r)|.
func logRatioRef(num, den []float64) (sum, mag float64) {
	acc := new(big.Float).SetPrec(256)
	for r := range num {
		fn, en := math.Frexp(num[r])
		fd, ed := math.Frexp(den[r])
		l := math.Log1p((fn-fd)/fd) + float64(en-ed)*math.Ln2
		acc.Add(acc, big.NewFloat(l))
		mag += math.Abs(l)
	}
	sum, _ = acc.Float64()
	return sum, mag
}

// checkLogRatio compares logRatio with logRatioRef. logRatio rounds each
// of its m mantissa ratios and m products once, so its logarithm is off by
// about m·eps, plus eps per unit of the exponent sum; the bound allows
// 8·eps·(m + 1 + Σ|ln(num_r/den_r)|). Subtracting two sums of logarithms
// would be off by eps·Σ(|ln num_r| + |ln den_r|), which on slacks far
// from 1 is well outside it.
func checkLogRatio(t *testing.T, name string, num, den []float64) {
	t.Helper()
	want, mag := logRatioRef(num, den)
	got := logRatio(num, den)
	tol := 8 * 0x1p-52 * (float64(len(num)) + 1 + mag)
	if d := math.Abs(got - want); !(d <= tol) {
		t.Errorf("%s (m=%d): logRatio %.17g, Σ log1p %.17g, |Δ| = %g > %g", name, len(num), got, want, d, tol)
	}
}

// logUniform draws n positive values whose binary exponents are uniform in
// [lo, hi] (clamped to the float64 range, subnormals included).
func logUniform(rng *rand.Rand, n int, lo, hi int) []float64 {
	lo = max(-1074, min(1023, lo))
	hi = max(lo, min(1023, hi))
	s := make([]float64, n)
	for i := range s {
		v := math.Ldexp(1+rng.Float64(), lo+rng.Intn(hi-lo+1))
		if v == 0 || math.IsInf(v, 0) {
			v = math.SmallestNonzeroFloat64
		}
		s[i] = v
	}
	return s
}

// rayPair draws n slack pairs from rng with den log-uniform in [lo, hi].
// About half the numerators are a line-search trial's slack, den·(1 − ρ)
// with |ρ| < 2⁻ᵏ for k from 1 to 60, so their ratios lie between a few ulps
// and a factor 2 from 1; the others are drawn independently from the same
// range, so their ratios span it.
func rayPair(rng *rand.Rand, n, lo, hi int) (num, den []float64) {
	den = logUniform(rng, n, lo, hi)
	far := logUniform(rng, n, lo, hi)
	num = make([]float64, n)
	for r, d := range den {
		v := far[r]
		if rng.Intn(2) == 0 {
			v = d * (1 - math.Ldexp(2*rng.Float64()-1, -1-rng.Intn(60)))
		}
		if !(v > 0) || math.IsInf(v, 0) {
			v = d
		}
		num[r] = v
	}
	return num, den
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestLogRatioMatchesLog1pSum checks the line search's one-logarithm
// barrier change against a sum of log1p terms: ratios of 1e±300 and
// beyond the float64 range (1e300 over 1e-300), subnormal slacks over huge
// ones, ratios within an ulp of 1, lengths that are not a multiple of the
// 8-factor renormalization, and m up to 10⁴.
func TestLogRatioMatchesLog1pSum(t *testing.T) {
	mixed := []float64{5e-324, 1e300, 1e-300, 1.5, 3e-10, 7e12, 1 - 0x1p-53, math.MaxFloat64, 0x1p-1022, 2.5e-320, 0.5}
	rev := make([]float64, len(mixed))
	for i, v := range mixed {
		rev[len(mixed)-1-i] = v
	}
	type tc struct {
		name     string
		num, den []float64
	}
	cases := []tc{
		{"empty", nil, nil},
		{"equal", []float64{3e-9}, []float64{3e-9}},
		{"1e300 over 1", []float64{1e300}, []float64{1}},
		{"1e-300 over 1", []float64{1e-300}, []float64{1}},
		{"1e300 over 1e-300", []float64{1e300}, []float64{1e-300}},
		{"1e-300 over 1e300", []float64{1e-300}, []float64{1e300}},
		{"subnormal over 1e300", []float64{5e-324}, []float64{1e300}},
		{"max over subnormal", []float64{math.MaxFloat64}, []float64{5e-324}},
		{"subnormal over subnormal", []float64{5e-324}, []float64{2.5e-320}},
		{"ulp below 1", []float64{1 - 0x1p-53}, []float64{1}},
		{"ulp above 1", []float64{1 + 0x1p-52}, []float64{1}},
		{"mixed reversed", mixed, rev},
		{"subnormals x9 over 1e300", fill(9, 5e-324), fill(9, 1e300)},
		{"1e300 x13 over 1e-300", fill(13, 1e300), fill(13, 1e-300)},
		{"1e300 over 1e-300 1e4", fill(10000, 1e300), fill(10000, 1e-300)},
		{"subnormal over 1e300 1e4", fill(10000, 5e-324), fill(10000, 1e300)},
		{"near one 1e4", fill(10000, 1e-9*(1+0x1p-40)), fill(10000, 1e-9)},
	}
	rng := rand.New(rand.NewSource(16))
	for _, m := range []int{1, 7, 8, 9, 17, 255, 1000, 9999, 10000} {
		num, den := rayPair(rng, m, -1074, 1023)
		cases = append(cases, tc{"log-uniform m=" + strconv.Itoa(m), num, den})
		num, den = rayPair(rng, m, -40, 10)
		cases = append(cases, tc{"barrier-like m=" + strconv.Itoa(m), num, den})
	}
	for _, c := range cases {
		checkLogRatio(t, c.name, c.num, c.den)
	}
}

// FuzzBarrierLog checks logRatio against the log1p sum on n slack pairs
// drawn by rayPair with exponents in [lo, hi]. The seed corpus lives under
// testdata/fuzz/FuzzBarrierLog; `make fuzz` searches beyond it.
func FuzzBarrierLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16, lo, hi int16) {
		m := 1 + int(n)%10000
		num, den := rayPair(rand.New(rand.NewSource(seed)), m, int(lo), int(hi))
		checkLogRatio(t, "fuzz", num, den)
	})
}

var logRatioSink float64

// BenchmarkLogRatio compares the line search's barrier change on 200
// barrier-like slack pairs with the m log1p terms it replaces.
func BenchmarkLogRatio(b *testing.B) {
	num, den := rayPair(rand.New(rand.NewSource(1)), 200, -40, 10)
	b.Run("logRatio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			logRatioSink = logRatio(num, den)
		}
	})
	b.Run("log1p", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var l float64
			for r := range num {
				l += math.Log1p((num[r] - den[r]) / den[r])
			}
			logRatioSink = l
		}
	})
}

// TestLineSearchSpanEndZeroAlloc pins the line-search span's cost on a
// traced solve: once a solve has recorded convex.linesearch into the
// registry, opening and ending the span allocates nothing, so the span adds
// no allocation to a traced Newton step.
func TestLineSearchSpanEndZeroAlloc(t *testing.T) {
	p, x0 := blockProblem(16, 9, 3, 7, 5)
	reg := obs.NewRegistry()
	sc := obs.NewScope(reg, nil)
	res, err := Solve(p, x0, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	hist := func() int64 { return reg.Snapshot().Latencies["latency.convex.linesearch.seconds"].Count }
	if got := hist(); got == 0 || got > int64(res.NewtonIters) {
		t.Fatalf("%d convex.linesearch spans over %d Newton steps", got, res.NewtonIters)
	}
	before := hist()
	if allocs := testing.AllocsPerRun(100, func() { sc.StartSpan("convex.linesearch").End() }); allocs != 0 {
		t.Errorf("convex.linesearch span allocates %g objects per StartSpan/End, want 0", allocs)
	}
	if got := hist() - before; got != 101 {
		t.Errorf("%d spans recorded by 101 StartSpan/End, want 101", got)
	}
}
