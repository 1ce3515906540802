package linalg

import (
	"math/rand"
	"testing"
)

// TestRefactorizeSolveZeroAlloc pins the workspace contract of the two
// factorizations the barrier and interior-point loops reuse every
// iteration: once a first call has sized the receiver, Refactorize and
// Solve on a same-shape matrix allocate nothing. The dense size spans more
// than one cholBlockSize panel so the blocked path runs.
func TestRefactorizeSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))

	a := randSPD(rng, cholBlockSize+13)
	b := randVec(rng, a.Rows)
	x := make([]float64, a.Rows)
	c := &Cholesky{}
	if err := c.Refactorize(a, 1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.Refactorize(a, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Cholesky.Refactorize allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.Solve(x, b) }); n != 0 {
		t.Errorf("Cholesky.Solve allocated %v times per call, want 0", n)
	}

	m := randBlockTriSPD(rng, []int{4, 7, 3, 5})
	bt := randVec(rng, m.Dim())
	xt := make([]float64, m.Dim())
	f := &BlockTriChol{}
	if err := f.Refactorize(m, 1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := f.Refactorize(m, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("BlockTriChol.Refactorize allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { f.Solve(xt, bt) }); n != 0 {
		t.Errorf("BlockTriChol.Solve allocated %v times per call, want 0", n)
	}
}
