package convex

import (
	"math"
	"testing"
)

// FuzzPrimalDualVsBarrier checks the primal–dual loop against the barrier
// on a random small entropic problem (blockProblem, with its block map).
// The barrier solves it from the strictly feasible box midpoint; the
// primal–dual loop solves it from that midpoint scaled by 2 + shift/16
// when shift > 0, a start above every box's upper bound and so outside
// G·x ≤ h, and from the midpoint itself when shift is 0. At one tolerance
// both must converge, to objectives within 1e-6 relative. The primal–dual
// loop then solves again from the same start with its own exit duals as
// z0, the warm rung's dual start, and must converge to the same
// objective. Run it with
// `make fuzz`; the seed corpus lives under
// testdata/fuzz/FuzzPrimalDualVsBarrier.
func FuzzPrimalDualVsBarrier(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nv, nb, nrows, ngroups, shift uint8) {
		p, x0 := blockProblem(seed, nv, nb, nrows, ngroups)
		start := x0
		if shift > 0 {
			start = make([]float64, len(x0))
			for k, v := range x0 {
				start[k] = v * (2 + float64(shift)/16)
			}
		}
		opts := Options{Tol: 1e-7}
		pd, err := SolvePrimalDual(p, start, nil, opts)
		if err != nil {
			t.Fatalf("primal–dual solve: %v", err)
		}
		carried, err := SolvePrimalDual(p, start, pd.Duals, opts)
		if err != nil {
			t.Fatalf("primal–dual solve from carried duals: %v", err)
		}
		ref, err := Solve(p, x0, opts)
		if err != nil {
			t.Fatalf("barrier solve: %v", err)
		}
		if !pd.Converged || !carried.Converged || !ref.Converged {
			t.Fatalf("converged: primal–dual %v after %d steps, from carried duals %v after %d, barrier %v",
				pd.Converged, pd.NewtonIters, carried.Converged, carried.NewtonIters, ref.Converged)
		}
		tol := 1e-6 * math.Max(1, math.Abs(ref.Obj))
		if d := math.Abs(pd.Obj - ref.Obj); d > tol {
			t.Fatalf("objective %.17g (primal–dual) vs %.17g (barrier)", pd.Obj, ref.Obj)
		}
		if d := math.Abs(carried.Obj - ref.Obj); d > tol {
			t.Fatalf("objective %.17g (primal–dual from carried duals) vs %.17g (barrier)", carried.Obj, ref.Obj)
		}
	})
}

// TestPrimalDualDualStart pins the dual start's contract: a z0 of the
// wrong length or with a non-finite entry is an error, and a z0 of
// exit duals from the same start reaches the same objective.
func TestPrimalDualDualStart(t *testing.T) {
	p, x0 := blockProblem(3, 12, 3, 6, 2)
	opts := Options{Tol: 1e-7}
	cold, err := SolvePrimalDual(p, x0, nil, opts)
	if err != nil || !cold.Converged {
		t.Fatalf("cold solve: converged %v, %v", cold != nil && cold.Converged, err)
	}
	warm, err := SolvePrimalDual(p, x0, cold.Duals, opts)
	if err != nil || !warm.Converged {
		t.Fatalf("solve from exit duals: converged %v, %v", warm != nil && warm.Converged, err)
	}
	if d := math.Abs(warm.Obj - cold.Obj); d > 1e-6*math.Max(1, math.Abs(cold.Obj)) {
		t.Errorf("objective %.17g from exit duals, %.17g from the default start", warm.Obj, cold.Obj)
	}
	bad := append([]float64(nil), cold.Duals...)
	bad[0] = math.NaN()
	for _, z0 := range [][]float64{cold.Duals[1:], bad} {
		if _, err := SolvePrimalDual(p, x0, z0, opts); err == nil {
			t.Errorf("z0 of length %d with z0[0] = %v: no error", len(z0), z0[0])
		}
	}
}
