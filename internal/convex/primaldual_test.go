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
// both must converge, to objectives within 1e-6 relative. Run it with
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
		pd, err := SolvePrimalDual(p, start, opts)
		if err != nil {
			t.Fatalf("primal–dual solve: %v", err)
		}
		ref, err := Solve(p, x0, opts)
		if err != nil {
			t.Fatalf("barrier solve: %v", err)
		}
		if !pd.Converged || !ref.Converged {
			t.Fatalf("converged: primal–dual %v after %d steps, barrier %v", pd.Converged, pd.NewtonIters, ref.Converged)
		}
		if d := math.Abs(pd.Obj - ref.Obj); d > 1e-6*math.Max(1, math.Abs(ref.Obj)) {
			t.Fatalf("objective %.17g (primal–dual) vs %.17g (barrier)", pd.Obj, ref.Obj)
		}
	})
}
