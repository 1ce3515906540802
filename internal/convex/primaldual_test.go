package convex

import (
	"math"
	"testing"
)

// FuzzPrimalDualVsBarrier checks the primal–dual loop against the barrier:
// a random small entropic problem (blockProblem, with its block map) solved
// from its strictly feasible box midpoint by both loops at one tolerance
// must converge in both, to objectives within 1e-6 relative. Run it with
// `make fuzz`; the seed corpus lives under
// testdata/fuzz/FuzzPrimalDualVsBarrier.
func FuzzPrimalDualVsBarrier(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nv, nb, nrows, ngroups uint8) {
		p, x0 := blockProblem(seed, nv, nb, nrows, ngroups)
		opts := Options{Tol: 1e-7}
		pd, err := SolvePrimalDual(p, x0, opts)
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
