package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x in place. It panics if the lengths differ.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	//sorallint:ignore floatcmp exact-zero fast path: alpha = 0 means y is untouched bit-for-bit
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		//sorallint:ignore floatcmp exact-zero skip keeps the scaled-ssq update well-defined
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute value in x (0 for an empty slice).
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm1 returns the sum of absolute values of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// Clone returns a fresh copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// AddTo stores x+y into dst (which may alias either input).
func AddTo(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("linalg: AddTo length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// SubTo stores x−y into dst (which may alias either input).
func SubTo(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("linalg: SubTo length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// MinElem returns the smallest element of x. It panics on an empty slice.
func MinElem(x []float64) float64 {
	if len(x) == 0 {
		panic("linalg: MinElem of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxElem returns the largest element of x. It panics on an empty slice.
func MaxElem(x []float64) float64 {
	if len(x) == 0 {
		panic("linalg: MaxElem of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// AllFinite reports whether every element of x is finite (no NaN or ±Inf).
// One subtraction decides each element: v−v is +0 for every finite v and
// NaN for NaN and ±Inf, and NaN compares unequal to everything.
func AllFinite(x []float64) bool {
	for _, v := range x {
		//sorallint:ignore floatcmp v−v is exactly +0 for every finite v under IEEE 754, so the test is exact, not a tolerance question
		if v-v != 0 {
			return false
		}
	}
	return true
}
