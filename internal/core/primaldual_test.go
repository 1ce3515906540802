package core_test

import (
	"math"
	"testing"

	"soral/internal/convex"
	"soral/internal/core"
	"soral/internal/eval"
	"soral/internal/linalg"
	"soral/internal/model"
)

// TestPrimalDualMatchesBarrier holds the primal–dual loop to the barrier on
// P2: on the structured gate's networks and on the warm-bursty network (the
// paper-sized 3×6, K=2, on the World Cup trace), every slot's P2 is solved
// by the barrier from the structured cold start and by the primal–dual loop
// from the same point and from the carried warm point, and from that point
// with the previous slot's barrier exit duals as z0 where the two slots
// have the same rows, all at the cold tolerance. The objectives must agree to 1e-7 relative, and every
// primal–dual exit must carry its certificate: G·x ≤ h and the
// stationarity ‖∇f + Gᵀz‖∞ within 1e-8 relative, and the gap
// (h − G·x)ᵀz within the tolerance. The barrier's decision carries forward
// as the next slot's prev.
func TestPrimalDualMatchesBarrier(t *testing.T) {
	nets := core.StructuredNetworks(t)
	scen, err := eval.Build(eval.ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, T: 48, Trace: eval.TraceWorldCup, Seed: 1, ReconfWeight: 10})
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, core.StructuredNetwork{Name: "warm-bursty", Net: scen.Net, In: scen.In})
	opts := core.DefaultOptions()
	tol := 1e-7
	so := opts.Solver
	so.Tol = tol
	for _, c := range nets {
		t.Run(c.Name, func(t *testing.T) {
			n, in := c.Net, c.In
			prev := model.NewZeroDecision(n)
			var prevDuals []float64 // the previous slot's barrier exit duals
			warm := 0
			for tt := 0; tt < in.T; tt++ {
				p2, err := core.BuildP2(n, in, tt, prev, opts.Params)
				if err != nil {
					t.Fatal(err)
				}
				cold := p2.ColdStart(in, tt)
				ref, err := convex.Solve(p2.Prob, cold, so)
				if err != nil || !ref.Converged {
					t.Fatalf("slot %d barrier: converged %v, err %v", tt, ref != nil && ref.Converged, err)
				}
				type start struct {
					name   string
					x0, z0 []float64
				}
				starts := []start{{name: "cold", x0: cold}}
				if tt > 0 {
					if x0 := core.WarmPoint(p2, in, tt, prev); x0 != nil {
						starts = append(starts, start{name: "warm", x0: x0})
						if core.SameCovering(n, in, tt, tt-1) {
							starts = append(starts, start{name: "warm from carried duals", x0: x0, z0: prevDuals})
						}
						warm++
					}
				}
				for _, st := range starts {
					res, err := convex.SolvePrimalDual(p2.Prob, st.x0, st.z0, so)
					if err != nil || !res.Converged {
						t.Fatalf("slot %d %s primal–dual: converged %v, err %v", tt, st.name, res != nil && res.Converged, err)
					}
					if d := math.Abs(res.Obj - ref.Obj); d > 1e-7*math.Max(1, math.Abs(ref.Obj)) {
						t.Errorf("slot %d %s: objective %.17g (primal–dual) vs %.17g (barrier)", tt, st.name, res.Obj, ref.Obj)
					}
					checkCertificate(t, p2.Prob, res, tol)
				}
				prevDuals = ref.Duals
				prev = p2.Extract(ref.X)
			}
			if warm == 0 {
				t.Fatal("no slot had a carried warm point")
			}
		})
	}
}

// checkCertificate checks a primal–dual exit's certificate: primal
// feasibility G·x ≤ h and stationarity ‖∇f + Gᵀz‖∞ to 1e-8 relative, and
// the gap (h − G·x)ᵀz at most tol.
func checkCertificate(t *testing.T, p *convex.Problem, res *convex.Result, tol float64) {
	t.Helper()
	g := p.G
	slack := make([]float64, g.M)
	g.MulVec(slack, res.X)
	var gap, viol float64
	for r := range slack {
		slack[r] = p.H[r] - slack[r]
		gap += slack[r] * res.Duals[r]
		viol = math.Max(viol, -slack[r])
		if !(res.Duals[r] > 0) {
			t.Fatalf("dual of row %d is %g", r, res.Duals[r])
		}
	}
	grad := make([]float64, g.N)
	p.Obj.Gradient(grad, res.X)
	stat := make([]float64, g.N)
	g.MulVecTrans(stat, res.Duals)
	for i := range stat {
		stat[i] += grad[i]
	}
	if viol > 1e-8*(1+linalg.NormInf(p.H)) {
		t.Errorf("exit violates a row by %g", viol)
	}
	if s := linalg.NormInf(stat); s > 1e-8*(1+linalg.NormInf(grad)) {
		t.Errorf("exit stationarity ‖∇f + Gᵀz‖∞ = %g, ‖∇f‖∞ = %g", s, linalg.NormInf(grad))
	}
	if gap > tol {
		t.Errorf("exit gap (h − G·x)ᵀz = %g, tolerance %g", gap, tol)
	}
}
