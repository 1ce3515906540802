package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	s := math.Max(math.Abs(a), math.Abs(b))
	if s < 1 {
		return d <= tol
	}
	return d <= tol*s
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy got %v", y)
	}
	Axpy(0, x, y) // no-op
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy(0) changed y: %v", y)
	}
}

func TestNorm2AgainstNaive(t *testing.T) {
	f := func(xs []float64) bool {
		for i := range xs {
			// Keep values sane to avoid naive-overflow in the reference.
			xs[i] = math.Mod(xs[i], 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		var ss float64
		for _, v := range xs {
			ss += v * v
		}
		return almostEq(Norm2(xs), math.Sqrt(ss), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2Overflow(t *testing.T) {
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt(2)
	if got := Norm2(x); !almostEq(got, want, 1e-12) {
		t.Fatalf("Norm2 overflow-guard got %v want %v", got, want)
	}
}

func TestNormInfNorm1(t *testing.T) {
	x := []float64{-3, 2, 1}
	if NormInf(x) != 3 {
		t.Fatalf("NormInf = %v", NormInf(x))
	}
	if Norm1(x) != 6 {
		t.Fatalf("Norm1 = %v", Norm1(x))
	}
	if NormInf(nil) != 0 {
		t.Fatal("NormInf(nil) != 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 9
	if x[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddSubTo(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 5}
	dst := make([]float64, 2)
	AddTo(dst, x, y)
	if dst[0] != 4 || dst[1] != 7 {
		t.Fatalf("AddTo got %v", dst)
	}
	SubTo(dst, y, x)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("SubTo got %v", dst)
	}
	// Aliasing allowed.
	SubTo(x, x, x)
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("aliased SubTo got %v", x)
	}
}

func TestMinMaxSum(t *testing.T) {
	x := []float64{3, -1, 2}
	if MinElem(x) != -1 || MaxElem(x) != 3 || Sum(x) != 4 {
		t.Fatalf("min/max/sum wrong: %v %v %v", MinElem(x), MaxElem(x), Sum(x))
	}
}

func TestAllFinite(t *testing.T) {
	for _, c := range []struct {
		name string
		x    []float64
		want bool
	}{
		{"empty", nil, true},
		{"finite", []float64{1, 2}, true},
		{"+Inf", []float64{1, math.Inf(1)}, false},
		{"-Inf", []float64{math.Inf(-1), 1}, false},
		{"NaN", []float64{1, math.NaN()}, false},
		{"-0", []float64{math.Copysign(0, -1)}, true},
		{"subnormal", []float64{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}, true},
		{"MaxFloat64", []float64{math.MaxFloat64, -math.MaxFloat64}, true},
		{"NaN after finite run", []float64{1, 2, 3, 4, 5, 6, 7, 8, math.NaN()}, false},
	} {
		if got := AllFinite(c.x); got != c.want {
			t.Errorf("%s: AllFinite(%v) = %v, want %v", c.name, c.x, got, c.want)
		}
	}
}

func TestFillScale(t *testing.T) {
	x := make([]float64, 3)
	Fill(x, 2)
	Scale(3, x)
	for _, v := range x {
		if v != 6 {
			t.Fatalf("Fill/Scale got %v", x)
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
