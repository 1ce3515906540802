package convex

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"soral/internal/obs"
)

// checkSumLog compares sumLog with the plain sum of m logarithms; the two
// may differ by the rounding of either, 8·m·eps·(1 + Σ|ln s_r|).
func checkSumLog(t *testing.T, name string, s []float64) {
	t.Helper()
	var want, mag float64
	for _, v := range s {
		l := logRef(v)
		want += l
		mag += math.Abs(l)
	}
	got := sumLog(s)
	tol := 8 * float64(len(s)) * 0x1p-52 * (1 + mag)
	if d := math.Abs(got - want); !(d <= tol) {
		t.Errorf("%s (m=%d): sumLog %.17g, Σ ln %.17g, |Δ| = %g > %g", name, len(s), got, want, d, tol)
	}
}

// logRef is ln v. A subnormal v is scaled by 2⁶⁴ first, which is exact:
// math.Log's amd64 assembly returns about ln 2⁻¹⁰²³ for every subnormal
// (−709.09 for 5e-324, whose logarithm is −744.44).
func logRef(v float64) float64 {
	if v < 0x1p-1022 {
		return math.Log(v*0x1p64) - 64*math.Ln2
	}
	return math.Log(v)
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

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestSumLogMatchesLogSum checks the line search's one-logarithm barrier
// term against Σ ln s_r on slacks whose naive product would underflow or
// overflow: the smallest subnormal, 1e±300, mixed magnitudes, lengths that
// are not a multiple of the 8-factor renormalization, and m up to 10⁴.
func TestSumLogMatchesLogSum(t *testing.T) {
	mixed := []float64{5e-324, 1e300, 1e-300, 1.5, 3e-10, 7e12, 1 - 0x1p-53, math.MaxFloat64, 0x1p-1022, 2.5e-320, 0.5}
	type tc struct {
		name string
		s    []float64
	}
	cases := []tc{
		{"one", []float64{1}},
		{"smallest subnormal", []float64{5e-324}},
		{"1e-300", []float64{1e-300}},
		{"1e300", []float64{1e300}},
		{"mixed", mixed},
		{"mixed x3", append(append(append([]float64{}, mixed...), mixed...), mixed...)},
		{"subnormals x7", fill(7, 5e-324)},
		{"subnormals x9", fill(9, 5e-324)},
		{"subnormals 1e4", fill(10000, 5e-324)},
		{"1e300 x13", fill(13, 1e300)},
		{"1e300 1e4", fill(10000, 1e300)},
		{"1e-300 1e4", fill(10000, 1e-300)},
		{"near one 1e4", fill(10000, 1+0x1p-40)},
	}
	rng := rand.New(rand.NewSource(16))
	for _, m := range []int{1, 7, 8, 9, 17, 255, 1000, 9999, 10000} {
		cases = append(cases,
			tc{"log-uniform m=" + strconv.Itoa(m), logUniform(rng, m, -1074, 1023)},
			tc{"barrier-like m=" + strconv.Itoa(m), logUniform(rng, m, -40, 10)})
	}
	for _, c := range cases {
		checkSumLog(t, c.name, c.s)
	}
}

// FuzzBarrierLog checks sumLog against Σ ln s_r on n log-uniform slacks
// with binary exponents in [lo, hi]. The seed corpus lives under
// testdata/fuzz/FuzzBarrierLog; `make fuzz` searches beyond it.
func FuzzBarrierLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n uint16, lo, hi int16) {
		m := 1 + int(n)%10000
		checkSumLog(t, "fuzz", logUniform(rand.New(rand.NewSource(seed)), m, int(lo), int(hi)))
	})
}

var sumLogSink float64

// BenchmarkSumLog compares the line search's barrier term on 200
// barrier-like slacks with the m logarithms it replaces.
func BenchmarkSumLog(b *testing.B) {
	s := logUniform(rand.New(rand.NewSource(1)), 200, -40, 10)
	b.Run("sumLog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sumLogSink = sumLog(s)
		}
	})
	b.Run("logs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var l float64
			for _, v := range s {
				l += math.Log(v)
			}
			sumLogSink = l
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
