package core

import (
	"math"
	"math/rand"
	"testing"

	"soral/internal/convex"
	"soral/internal/linalg"
	"soral/internal/model"
	"soral/internal/obs"
)

// structuredCase is one seeded network of the structured-vs-dense gate.
type structuredCase struct {
	name            string
	seed            int64
	numT2, numT1, k int
	reconf          float64
	tier1           bool
	slots           int
}

func (c structuredCase) build(t *testing.T) (*model.Network, *model.Inputs) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	n := model.RandomNetwork(rng, c.numT2, c.numT1, c.k, c.reconf)
	if c.tier1 {
		capT1 := make([]float64, n.NumTier1)
		reconfT1 := make([]float64, n.NumTier1)
		for j := range capT1 {
			capT1[j] = 40
			reconfT1[j] = 2
		}
		if err := n.EnableTier1(capT1, reconfT1); err != nil {
			t.Fatal(err)
		}
	}
	return n, model.RandomInputs(rng, n, c.slots)
}

// structuredCases are the seeded networks of the structured-Newton gates:
// the cold-dense benchmark's 4×12 shape, the paper-sized 3×6, and a 3×5
// network with tier-1 capacities.
func structuredCases() []structuredCase {
	return []structuredCase{
		{name: "4x12-K2", seed: 1501, numT2: 4, numT1: 12, k: 2, reconf: 10, slots: 5},
		{name: "3x6-K2", seed: 1502, numT2: 3, numT1: 6, k: 2, reconf: 10, slots: 6},
		{name: "3x5-K2-tier1", seed: 1503, numT2: 3, numT1: 5, k: 2, reconf: 8, tier1: true, slots: 6},
	}
}

// TestStructuredNewtonMatchesDense is the gate for P2's block map
// (DESIGN.md §15): every slot's P2 is solved with the per-cloud block map
// and again with the map cleared (one dense block), and the two solves must
// agree on the objective to 1e-9 relative with both decisions feasible.
// The block-mapped decision carries forward as the next slot's prev.
func TestStructuredNewtonMatchesDense(t *testing.T) {
	opts := DefaultOptions()
	for _, c := range structuredCases() {
		t.Run(c.name, func(t *testing.T) {
			n, in := c.build(t)
			prev := model.NewZeroDecision(n)
			for tt := 0; tt < in.T; tt++ {
				p2, err := BuildP2(n, in, tt, prev, opts.Params)
				if err != nil {
					t.Fatal(err)
				}
				if p2.Prob.Blocks == nil {
					t.Fatal("BuildP2 supplied no block map")
				}
				x0 := p2.ColdStart(in, tt)
				blocked, err := convex.Solve(p2.Prob, x0, opts.Solver)
				if err != nil {
					t.Fatalf("slot %d block-mapped: %v", tt, err)
				}
				dense := *p2.Prob
				dense.Blocks = nil
				ref, err := convex.Solve(&dense, x0, opts.Solver)
				if err != nil {
					t.Fatalf("slot %d dense: %v", tt, err)
				}
				if !blocked.Converged || !ref.Converged {
					t.Fatalf("slot %d: converged block=%v dense=%v", tt, blocked.Converged, ref.Converged)
				}
				if d := math.Abs(blocked.Obj - ref.Obj); d > 1e-9*math.Max(1, math.Abs(ref.Obj)) {
					t.Errorf("slot %d: objective %.17g (blocks) vs %.17g (dense), |Δ| = %g", tt, blocked.Obj, ref.Obj, d)
				}
				db, dd := p2.Extract(blocked.X), p2.Extract(ref.X)
				for _, d := range []*model.Decision{db, dd} {
					if ok, v := d.FeasibleAt(n, in.Workload[tt], 1e-4); !ok {
						t.Fatalf("slot %d: decision infeasible by %g", tt, v)
					}
				}
				prev = db
			}
		})
	}
}

// TestColdSolveLineSearchNoStall guards the line search's difference-form
// merit (DESIGN.md §15). Every slot of the structured gate's 4×12 network
// is solved from the structured cold start; no barrier stage may run to
// MaxNewton, and the line search may evaluate at most 1.5 trials per
// Newton step on average. A test on the difference of two merits of
// |t·f| ≈ 1e10 backtracks on their rounding late in the path, at several
// trials per step, and stalls stages at the cap.
func TestColdSolveLineSearchNoStall(t *testing.T) {
	opts := DefaultOptions()
	n, in := structuredCases()[0].build(t)
	so := opts.Solver
	so.MaxNewton = 80
	prev := model.NewZeroDecision(n)
	steps, trials := 0, 0
	for tt := 0; tt < in.T; tt++ {
		p2, err := BuildP2(n, in, tt, prev, opts.Params)
		if err != nil {
			t.Fatal(err)
		}
		sink := obs.NewRingSink(0)
		so.Obs = obs.NewScope(nil, sink)
		res, err := convex.Solve(p2.Prob, p2.ColdStart(in, tt), so)
		if err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		events := sink.Events()
		if int64(len(events)) != sink.Total() {
			t.Fatalf("slot %d: ring sink kept %d of %d events", tt, len(events), sink.Total())
		}
		perStage := map[int]int{}
		for _, e := range events {
			if e.Kind == obs.KindIter && e.Name == "convex.newton" {
				perStage[e.Stage]++
				steps++
				trials += e.Trials
			}
		}
		for stage, k := range perStage {
			if k >= so.MaxNewton {
				t.Errorf("slot %d: barrier stage %d took %d Newton steps, the MaxNewton cap", tt, stage, k)
			}
		}
		prev = p2.Extract(res.X)
	}
	mean := float64(trials) / float64(steps)
	t.Logf("%d slots: %d Newton steps, %d trials, %.2f trials per step", in.T, steps, trials, mean)
	if mean > 1.5 {
		t.Errorf("%.2f line-search trials per Newton step, want ≤ 1.5", mean)
	}
}

// TestCarriedSlackExitStrictlyFeasible guards the line search's carried
// slack (DESIGN.md §15): within a barrier stage the slack is updated along
// the search ray, s − α·G·dx, rather than recomputed as h − G·x. On every
// slot of the structured gate's networks, solved from the structured cold
// start and again from the warm-carried start, the exit point must be
// strictly feasible by the exact slack h − G·x on every row, and every dual
// estimate must be finite and positive.
func TestCarriedSlackExitStrictlyFeasible(t *testing.T) {
	opts := DefaultOptions()
	for _, c := range structuredCases() {
		t.Run(c.name, func(t *testing.T) {
			n, in := c.build(t)
			st := newSolveState()
			prev := model.NewZeroDecision(n)
			warm := 0
			for tt := 0; tt < in.T; tt++ {
				p2, err := BuildP2(n, in, tt, prev, opts.Params)
				if err != nil {
					t.Fatal(err)
				}
				var warmX0 []float64
				if tt > 0 {
					if x0 := st.warmPoint(p2, in, tt, prev); x0 != nil {
						warmX0 = append(warmX0, x0...)
						warm++
					}
				}
				for _, start := range []struct {
					kind string
					x0   []float64
				}{{"cold", p2.ColdStart(in, tt)}, {"warm", warmX0}} {
					kind := start.kind
					if start.x0 == nil {
						continue
					}
					res, err := convex.Solve(p2.Prob, start.x0, opts.Solver)
					if err != nil {
						t.Fatalf("slot %d %s: %v", tt, kind, err)
					}
					g := p2.Prob.G
					gx := make([]float64, g.M)
					g.MulVec(gx, res.X)
					for r := range gx {
						if s := p2.Prob.H[r] - gx[r]; !(s > 0) {
							t.Errorf("slot %d %s: exit slack of row %d is %g", tt, kind, r, s)
						}
					}
					for r, d := range res.Duals {
						if !(d > 0) || math.IsInf(d, 0) {
							t.Errorf("slot %d %s: dual of row %d is %g", tt, kind, r, d)
						}
					}
					if kind == "cold" {
						prev = p2.Extract(res.X)
					}
				}
			}
			if warm == 0 {
				t.Fatal("no slot had a warm-carried start")
			}
		})
	}
}

// TestBarrierExitCertificate checks the barrier's exit certificate on every
// cold slot of the structured gate's networks, solved from the structured
// start. Only the final barrier stage centers exactly (DESIGN.md §15), and
// the certificate is what that keeps: the exit point is strictly feasible
// by the exact slack h − G·x, the exit duals μ = 1/(t·s) close the duality
// gap (h − G·x)ᵀμ to within Tol, and the stationarity residual
// ‖∇f + Gᵀμ‖∞ is at most 1e-4 of 1 + ‖∇f‖∞.
func TestBarrierExitCertificate(t *testing.T) {
	opts := DefaultOptions()
	for _, c := range structuredCases() {
		t.Run(c.name, func(t *testing.T) {
			n, in := c.build(t)
			prev := model.NewZeroDecision(n)
			worst := 0.0
			for tt := 0; tt < in.T; tt++ {
				p2, err := BuildP2(n, in, tt, prev, opts.Params)
				if err != nil {
					t.Fatal(err)
				}
				res, err := convex.Solve(p2.Prob, p2.ColdStart(in, tt), opts.Solver)
				if err != nil || !res.Converged {
					t.Fatalf("slot %d: converged %v, err %v", tt, res != nil && res.Converged, err)
				}
				g, h := p2.Prob.G, p2.Prob.H
				gx := make([]float64, g.M)
				g.MulVec(gx, res.X)
				var gap float64
				for r := range gx {
					s := h[r] - gx[r]
					if !(s > 0) {
						t.Errorf("slot %d: exit slack of row %d is %g", tt, r, s)
					}
					gap += s * res.Duals[r]
				}
				if !(gap <= opts.Solver.Tol) {
					t.Errorf("slot %d: duality gap (h − G·x)ᵀμ = %g, want ≤ %g", tt, gap, opts.Solver.Tol)
				}
				grad := make([]float64, g.N)
				p2.Prob.Obj.Gradient(grad, res.X)
				resid := append([]float64(nil), grad...)
				for r, row := range g.Rows {
					for _, e := range row {
						resid[e.Index] += e.Val * res.Duals[r]
					}
				}
				rel := linalg.NormInf(resid) / (1 + linalg.NormInf(grad))
				if !(rel <= 1e-4) {
					t.Errorf("slot %d: ‖∇f + Gᵀμ‖∞ / (1 + ‖∇f‖∞) = %g, want ≤ 1e-4", tt, rel)
				}
				worst = math.Max(worst, rel)
				prev = p2.Extract(res.X)
			}
			t.Logf("worst relative stationarity %.2g", worst)
		})
	}
}

// TestBlockMappedP2SolveZeroAllocPerNewtonStep pins the structured Newton
// step's allocation budget: with a warmed workspace, a block-mapped P2
// solve allocates the same fixed per-solve amount (the iterate copy, the
// result and its duals) whether it takes few Newton iterations or many, so
// each Newton iteration allocates nothing.
func TestBlockMappedP2SolveZeroAllocPerNewtonStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1504))
	n := model.RandomNetwork(rng, 4, 12, 2, 10)
	in := model.RandomInputs(rng, n, 2)
	opts := DefaultOptions()
	p2, err := BuildP2(n, in, 0, model.NewZeroDecision(n), opts.Params)
	if err != nil {
		t.Fatal(err)
	}
	x0 := p2.ColdStart(in, 0)
	solveAllocs := func(tol float64) (float64, int) {
		so := opts.Solver
		so.Tol = tol
		so.Work = convex.NewWorkspace()
		res, err := convex.Solve(p2.Prob, x0, so)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := convex.Solve(p2.Prob, x0, so); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, res.NewtonIters
	}
	shortAllocs, shortIters := solveAllocs(1e-2)
	longAllocs, longIters := solveAllocs(1e-9)
	if longIters <= shortIters {
		t.Fatalf("tolerances did not change the Newton iteration count (%d vs %d)", shortIters, longIters)
	}
	t.Logf("%.0f allocs over %d Newton iterations, %.0f over %d", shortAllocs, shortIters, longAllocs, longIters)
	if shortAllocs != longAllocs {
		t.Errorf("%.0f allocs over %d Newton iterations but %.0f over %d: Newton iterations allocate",
			shortAllocs, shortIters, longAllocs, longIters)
	}
}

// TestPrimalDualZeroAllocPerNewtonStep pins the primal–dual loop's
// allocation budget as TestBlockMappedP2SolveZeroAllocPerNewtonStep pins
// the barrier's: with a warmed workspace, a block-mapped P2 solve from the
// structured cold start allocates the same fixed per-solve amount (the
// iterate copy, the result and its duals) at a loose and at a tight
// tolerance, so each Newton step allocates nothing.
func TestPrimalDualZeroAllocPerNewtonStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1504))
	n := model.RandomNetwork(rng, 4, 12, 2, 10)
	in := model.RandomInputs(rng, n, 2)
	opts := DefaultOptions()
	p2, err := BuildP2(n, in, 0, model.NewZeroDecision(n), opts.Params)
	if err != nil {
		t.Fatal(err)
	}
	x0 := p2.ColdStart(in, 0)
	solveAllocs := func(tol float64) (float64, int) {
		so := opts.Solver
		so.Tol = tol
		so.Work = convex.NewWorkspace()
		res, err := convex.SolvePrimalDual(p2.Prob, x0, nil, so)
		if err != nil || !res.Converged {
			t.Fatalf("tol %g: converged %v, err %v", tol, res != nil && res.Converged, err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := convex.SolvePrimalDual(p2.Prob, x0, nil, so); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, res.NewtonIters
	}
	shortAllocs, shortIters := solveAllocs(1e-2)
	longAllocs, longIters := solveAllocs(1e-9)
	if longIters <= shortIters {
		t.Fatalf("tolerances did not change the Newton step count (%d vs %d)", shortIters, longIters)
	}
	t.Logf("%.0f allocs over %d Newton steps, %.0f over %d", shortAllocs, shortIters, longAllocs, longIters)
	if shortAllocs != longAllocs {
		t.Errorf("%.0f allocs over %d Newton steps but %.0f over %d: Newton steps allocate",
			shortAllocs, shortIters, longAllocs, longIters)
	}
}

// TestBorderFoldRank checks the cell fold of P2's Newton border (DESIGN.md
// §15). P2's cross-cloud rows and groups, the tier-2 groups and capacity
// rows and the (3d) rows, are each constant on the pairs of one tier-2
// cloud, so the border folds to rank |I| however many columns it has. At
// slot 0 of the 4×12 and 3×6 gate networks the folded step must match the
// nil-map dense step to 1e-9 relative in the local norm at the structured
// cold start, with t = 1 and with t = m/Tol. At the converged point, where
// the near-active rows' weights 1/s² are largest, the bound is 1e-8: there
// the dense step itself is only that accurate, and on 3×6 it differs by
// 2e-9 from the structured step with the border's columns unfolded too.
func TestBorderFoldRank(t *testing.T) {
	opts := DefaultOptions()
	for _, c := range structuredCases()[:2] {
		t.Run(c.name, func(t *testing.T) {
			n, in := c.build(t)
			p2, err := BuildP2(n, in, 0, model.NewZeroDecision(n), opts.Params)
			if err != nil {
				t.Fatal(err)
			}
			x0 := p2.ColdStart(in, 0)
			res, err := convex.Solve(p2.Prob, x0, opts.Solver)
			if err != nil {
				t.Fatal(err)
			}
			tol := opts.Solver.Tol
			if tol <= 0 {
				tol = 1e-7
			}
			dense := *p2.Prob
			dense.Blocks = nil
			tMax := float64(p2.Prob.G.M) / tol
			for _, at := range []struct {
				name  string
				x     []float64
				t     float64
				bound float64
			}{
				{"cold start, t=1", x0, 1, 1e-9},
				{"cold start, t=m/Tol", x0, tMax, 1e-9},
				{"converged, t=m/Tol", res.X, tMax, 1e-8},
			} {
				dxB := make([]float64, p2.NumVars)
				dxD := make([]float64, p2.NumVars)
				cols, rank, err := convex.NewWorkspace().NewtonStep(p2.Prob, at.x, at.t, dxB)
				if err != nil {
					t.Fatalf("%s: block-mapped: %v", at.name, err)
				}
				if _, _, err := convex.NewWorkspace().NewtonStep(&dense, at.x, at.t, dxD); err != nil {
					t.Fatalf("%s: dense: %v", at.name, err)
				}
				if rank != n.NumTier2 || cols <= rank {
					t.Errorf("%s: border of %d columns factored at rank %d, want rank |I| = %d", at.name, cols, rank, n.NumTier2)
				}
				diff := make([]float64, len(dxB))
				for i := range diff {
					diff[i] = dxB[i] - dxD[i]
				}
				ref := localNorm(p2.Prob, at.x, at.t, dxD)
				if e := localNorm(p2.Prob, at.x, at.t, diff); !(e <= at.bound*ref) {
					t.Errorf("%s: ‖dx_blocks − dx_dense‖ = %g against ‖dx_dense‖ = %g in the local norm", at.name, e, ref)
				}
			}
		})
	}
}

// localNorm is √(vᵀ·H·v) for P2's barrier Newton matrix H at x with
// barrier weight t: t times the entropic groups' curvature plus the rows'
// Σ (g_r·v)²/s_r².
func localNorm(p *convex.Problem, x []float64, t float64, v []float64) float64 {
	var q float64
	for _, g := range p.Obj.(*convex.Entropic).Groups {
		if g.Coef <= 0 {
			continue
		}
		var s, sv float64
		for _, k := range g.Members {
			s, sv = s+x[k], sv+v[k]
		}
		q += t * g.Coef / (s + g.Eps) * sv * sv
	}
	for r, row := range p.G.Rows {
		var gx, gv float64
		for _, e := range row {
			gx += e.Val * x[e.Index]
			gv += e.Val * v[e.Index]
		}
		s := p.H[r] - gx
		q += gv * gv / (s * s)
	}
	return math.Sqrt(q)
}
