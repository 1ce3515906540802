package convex

import (
	"math"
	"math/rand"
	"testing"

	"soral/internal/linalg"
	"soral/internal/lp"
	"soral/internal/obs"
	"soral/internal/obs/obstest"
)

// boxConstraints builds G,h for lo ≤ x ≤ hi.
func boxConstraints(lo, hi []float64) (*lp.SparseMatrix, []float64) {
	n := len(lo)
	g := lp.NewSparseMatrix(2*n, n)
	h := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		g.Append(i, i, 1) // x ≤ hi
		h[i] = hi[i]
		g.Append(n+i, i, -1) // −x ≤ −lo
		h[n+i] = -lo[i]
	}
	return g, h
}

func TestBarrierQuadraticBoxMin(t *testing.T) {
	// min (x−3)² over [0,10] → x=3. f = ½·2x² −6x + const.
	g, h := boxConstraints([]float64{0}, []float64{10})
	obj := &QuadObjective{DiagQ: []float64{2}, C: []float64{-6}}
	res, err := Solve(&Problem{Obj: obj, G: g, H: h}, []float64{9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-4 {
		t.Fatalf("x = %v, want 3", res.X[0])
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
}

func TestBarrierQuadraticActiveBound(t *testing.T) {
	// min (x−12)² over [0,10] → x=10 (bound active).
	g, h := boxConstraints([]float64{0}, []float64{10})
	obj := &QuadObjective{DiagQ: []float64{2}, C: []float64{-24}}
	res, err := Solve(&Problem{Obj: obj, G: g, H: h}, []float64{5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-10) > 1e-3 {
		t.Fatalf("x = %v, want 10", res.X[0])
	}
}

func TestBarrierLPMatchesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		// Random bounded LP in barrier form: box + a couple of covering rows.
		lo := make([]float64, n)
		hi := make([]float64, n)
		c := make([]float64, n)
		for i := range hi {
			hi[i] = 2 + rng.Float64()*6
			c[i] = rng.Float64()*3 + 0.1
		}
		g, h := boxConstraints(lo, hi)
		// Add covering row: −Σ aᵢxᵢ ≤ −rhs.
		gp := lp.NewProblem(n)
		copy(gp.C, c)
		for i := range hi {
			gp.Hi[i] = hi[i]
		}
		rows := 1 + rng.Intn(2)
		base := g.M
		g2 := lp.NewSparseMatrix(base+rows, n)
		for r, row := range g.Rows {
			for _, e := range row {
				g2.Append(r, e.Index, e.Val)
			}
		}
		h2 := append([]float64(nil), h...)
		for r := 0; r < rows; r++ {
			var es []lp.Entry
			var maxLHS float64
			for i := 0; i < n; i++ {
				v := rng.Float64() + 0.2
				es = append(es, lp.Entry{Index: i, Val: v})
				maxLHS += v * hi[i]
			}
			rhs := rng.Float64() * 0.7 * maxLHS
			for _, e := range es {
				g2.Append(base+r, e.Index, -e.Val)
			}
			h2 = append(h2, -rhs)
			gp.AddConstraint(es, lp.GE, rhs, "")
		}
		// 0.9·hi is strictly inside the box and covers every row, whose
		// right-hand side is at most 0.7 of Σ a_i·hi_i.
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = 0.9 * hi[i]
		}
		res, err := Solve(&Problem{Obj: &LinearObjective{C: c}, G: g2, H: h2}, x0, Options{Tol: 1e-8})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		spx, err := lp.SolveSimplex(gp, lp.Options{})
		if err != nil || spx.Status != lp.Optimal {
			t.Fatalf("trial %d: simplex %v %v", trial, spx, err)
		}
		if math.Abs(res.Obj-spx.Obj) > 1e-3*(1+math.Abs(spx.Obj)) {
			t.Fatalf("trial %d: barrier %v vs simplex %v", trial, res.Obj, spx.Obj)
		}
	}
}

// entropyObjective is f(x) = Σ (xᵢ+ε)ln((xᵢ+ε)/(pᵢ+ε)) − xᵢ, the paper's
// regularizer, with known unconstrained minimizer x = p.
type entropyObjective struct {
	p   []float64
	eps float64
}

func (o *entropyObjective) Value(x []float64) float64 {
	var v float64
	for i, xi := range x {
		v += (xi+o.eps)*math.Log((xi+o.eps)/(o.p[i]+o.eps)) - xi
	}
	return v
}

func (o *entropyObjective) Change(x, dx []float64, alpha float64) float64 {
	var v float64
	for i, xi := range x {
		u, d := xi+o.eps, alpha*dx[i]
		v += d*math.Log(u/(o.p[i]+o.eps)) + (u+d)*math.Log1p(d/u) - d
	}
	return v
}

func (o *entropyObjective) Gradient(grad, x []float64) {
	for i, xi := range x {
		grad[i] = math.Log((xi + o.eps) / (o.p[i] + o.eps))
	}
}

func (o *entropyObjective) AddHessian(ns *NewtonSystem, x []float64) {
	for i, xi := range x {
		ns.AddDiag(i, 1/(xi+o.eps))
	}
}

func TestBarrierEntropicObjective(t *testing.T) {
	// The regularizer alone is minimized at x = p (interior of the box).
	p := []float64{1, 2, 0.5}
	g, h := boxConstraints([]float64{0, 0, 0}, []float64{10, 10, 10})
	obj := &entropyObjective{p: p, eps: 0.01}
	res, err := Solve(&Problem{Obj: obj, G: g, H: h}, []float64{5, 5, 5}, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if math.Abs(res.X[i]-p[i]) > 1e-3 {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], p[i])
		}
	}
}

func TestBarrierEntropicWithCovering(t *testing.T) {
	// min Σ a·x + entropy-to-prev subject to x ≥ λ: when λ > decay point the
	// constraint binds. Single variable: a·x + (b/η)((x+ε)ln((x+ε)/(p+ε))−x), x≥λ.
	a, b, eps, prev, lam, cap := 1.0, 5.0, 0.01, 0.0, 3.0, 10.0
	eta := math.Log(1 + cap/eps)
	obj := &scaledEntropyPlusLinear{a: a, bOverEta: b / eta, eps: eps, prev: prev}
	g := lp.NewSparseMatrix(2, 1)
	g.Append(0, 0, 1) // x ≤ cap
	g.Append(1, 0, -1)
	h := []float64{cap, -lam}
	res, err := Solve(&Problem{Obj: obj, G: g, H: h}, []float64{6.5}, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained minimizer from eq. (6): (1+C/ε)^{−a/b}(prev+ε) − ε < 0 here,
	// so the covering constraint must bind: x* = λ.
	if math.Abs(res.X[0]-lam) > 1e-3 {
		t.Fatalf("x = %v, want %v", res.X[0], lam)
	}
}

type scaledEntropyPlusLinear struct {
	a, bOverEta, eps, prev float64
}

func (o *scaledEntropyPlusLinear) Value(x []float64) float64 {
	xi := x[0]
	return o.a*xi + o.bOverEta*((xi+o.eps)*math.Log((xi+o.eps)/(o.prev+o.eps))-xi)
}

func (o *scaledEntropyPlusLinear) Change(x, dx []float64, alpha float64) float64 {
	u, d := x[0]+o.eps, alpha*dx[0]
	return o.a*d + o.bOverEta*(d*math.Log(u/(o.prev+o.eps))+(u+d)*math.Log1p(d/u)-d)
}

func (o *scaledEntropyPlusLinear) Gradient(grad, x []float64) {
	grad[0] = o.a + o.bOverEta*math.Log((x[0]+o.eps)/(o.prev+o.eps))
}

func (o *scaledEntropyPlusLinear) AddHessian(ns *NewtonSystem, x []float64) {
	ns.AddDiag(0, o.bOverEta/(x[0]+o.eps))
}

func TestBarrierDualsSignAndComplementarity(t *testing.T) {
	// Active constraint gets a positive dual; inactive ones vanish.
	g, h := boxConstraints([]float64{0}, []float64{10})
	obj := &QuadObjective{DiagQ: []float64{2}, C: []float64{-24}} // min at 12, clipped at 10
	res, err := Solve(&Problem{Obj: obj, G: g, H: h}, []float64{5}, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duals[0] < 1e-3 {
		t.Fatalf("active dual = %v, want > 0", res.Duals[0])
	}
	if res.Duals[1] > 1e-3 {
		t.Fatalf("inactive dual = %v, want ≈ 0", res.Duals[1])
	}
}

func TestSolveRejectsBadDims(t *testing.T) {
	g := lp.NewSparseMatrix(2, 1)
	if _, err := Solve(&Problem{Obj: &LinearObjective{C: []float64{1}}, G: g, H: []float64{1}}, nil, Options{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

// TestSolveRejectsNilStart: there is no phase I, so the barrier has no
// start to invent.
func TestSolveRejectsNilStart(t *testing.T) {
	g, h := boxConstraints([]float64{0}, []float64{10})
	if _, err := Solve(&Problem{Obj: &QuadObjective{DiagQ: []float64{2}, C: []float64{-6}}, G: g, H: h}, nil, Options{}); err == nil {
		t.Fatal("Solve accepted a nil start")
	}
}

// TestSolveInfeasibleStartRunsPrimalDual: a start outside G·x ≤ h, and one
// on its boundary, go to the primal–dual loop, which converges to the
// optimum with its certificate's gap and an exit inside the box.
func TestSolveInfeasibleStartRunsPrimalDual(t *testing.T) {
	g, h := boxConstraints([]float64{0, 0}, []float64{10, 10})
	p := &Problem{Obj: &QuadObjective{DiagQ: []float64{2, 2}, C: []float64{-6, -24}}, G: g, H: h}
	for _, x0 := range [][]float64{{-7, 15}, {10, 0}, {1e6, -1e6}} {
		sc, rec := obstest.NewScope()
		res, err := Solve(p, x0, Options{Tol: 1e-9, Obs: sc})
		if err != nil || !res.Converged {
			t.Fatalf("x0 %v: converged %v, err %v", x0, res != nil && res.Converged, err)
		}
		if math.Abs(res.X[0]-3) > 1e-6 || math.Abs(res.X[1]-10) > 1e-6 {
			t.Errorf("x0 %v: x = %v, want [3 10]", x0, res.X)
		}
		gx := make([]float64, g.M)
		g.MulVec(gx, res.X)
		var gap float64
		for r := range gx {
			if gx[r] > h[r]+1e-8 {
				t.Errorf("x0 %v: row %d violated by %g", x0, r, gx[r]-h[r])
			}
			gap += (h[r] - gx[r]) * res.Duals[r]
		}
		if gap > 1e-9 {
			t.Errorf("x0 %v: exit gap %g", x0, gap)
		}
		if rec.Counter(obs.MetricSolverIters) != int64(res.NewtonIters) || len(rec.Named("convex.linesearch")) != 0 {
			t.Errorf("x0 %v: %d iteration events for %d steps, %d barrier line searches: not the primal–dual loop",
				x0, rec.Counter(obs.MetricSolverIters), res.NewtonIters, len(rec.Named("convex.linesearch")))
		}
	}
}

func TestSolveUsesProvidedStrictPoint(t *testing.T) {
	g, h := boxConstraints([]float64{0}, []float64{10})
	obj := &QuadObjective{DiagQ: []float64{2}, C: []float64{-6}}
	res, err := Solve(&Problem{Obj: obj, G: g, H: h}, []float64{5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-4 {
		t.Fatalf("x = %v", res.X[0])
	}
}

func TestQuadObjectiveFullMatrix(t *testing.T) {
	// f = ½ xᵀQx + cᵀx with Q = [[2,1],[1,2]]; unconstrained min solves Qx=−c.
	q := linalg.NewDenseFrom(2, 2, []float64{2, 1, 1, 2})
	c := []float64{-3, -3}
	g, h := boxConstraints([]float64{-10, -10}, []float64{10, 10})
	res, err := Solve(&Problem{Obj: &QuadObjective{Q: q, C: c}, G: g, H: h}, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Qx = [3,3] → x = [1,1].
	for i := range res.X {
		if math.Abs(res.X[i]-1) > 1e-4 {
			t.Fatalf("x = %v, want [1,1]", res.X)
		}
	}
	// Objective value check: ½[1,1]Q[1,1]ᵀ −6 = 3 − 6 = −3.
	if math.Abs(res.Obj+3) > 1e-4 {
		t.Fatalf("obj = %v, want −3", res.Obj)
	}
}

// TestBarrierZeroAllocPerNewtonStep pins the barrier's allocation budget as
// core's TestPrimalDualZeroAllocPerNewtonStep pins the primal–dual loop's:
// with a warmed workspace, a solve allocates the same fixed per-solve amount
// (the iterate copy, the result and its duals) at a loose and at a tight
// tolerance, so neither a Newton step nor the tangent predictor between
// stages allocates. It runs on random problems from blockProblem, with
// their block map and with the map cleared (the dense step). The predictor
// is also checked on its own, from the exact center of the loose solve's
// last weight, where it must move x and allocate nothing.
func TestBarrierZeroAllocPerNewtonStep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		blocked, x0 := blockProblem(seed, 9, 3, 0x2d, 0x1b)
		dense := *blocked
		dense.Blocks = nil
		for _, c := range []struct {
			name string
			p    *Problem
		}{{"blocks", blocked}, {"dense", &dense}} {
			p := c.p
			solveAllocs := func(tol float64) (float64, *Result) {
				opts := Options{Tol: tol, Work: NewWorkspace()}
				res, err := Solve(p, x0, opts)
				if err != nil || !res.Converged {
					t.Fatalf("seed %d %s tol %g: converged %v, err %v", seed, c.name, tol, res != nil && res.Converged, err)
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := Solve(p, x0, opts); err != nil {
						t.Fatal(err)
					}
				})
				return allocs, res
			}
			shortAllocs, short := solveAllocs(1e-2)
			longAllocs, long := solveAllocs(1e-9)
			if long.NewtonIters <= short.NewtonIters {
				t.Fatalf("seed %d %s: tolerances did not change the Newton step count (%d vs %d)",
					seed, c.name, short.NewtonIters, long.NewtonIters)
			}
			if shortAllocs != longAllocs {
				t.Errorf("seed %d %s: %.0f allocs over %d Newton steps but %.0f over %d: the loop allocates",
					seed, c.name, shortAllocs, short.NewtonIters, longAllocs, long.NewtonIters)
			}

			// The loose solve's last stage centered exactly at the first
			// weight t = Mu^k with m/t < 1e-2.
			n, m := p.G.N, p.G.M
			tw := 1.0
			for float64(m)/tw >= 1e-2 {
				tw *= Mu
			}
			ws := NewWorkspace()
			dx := make([]float64, n)
			if _, _, err := ws.NewtonStep(p, short.X, tw, dx); err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			moved := false
			allocs := testing.AllocsPerRun(5, func() {
				copy(x, short.X)
				predict(p, &ws.ns, x, ws.slack[:m], ws.slackTrial[:m], ws.grad[:n], ws.dx[:n], ws.gdx[:m], tw)
				for i := range x {
					moved = moved || x[i] != short.X[i]
				}
			})
			if allocs != 0 {
				t.Errorf("seed %d %s: the predictor allocates %.0f times", seed, c.name, allocs)
			}
			if !moved {
				t.Errorf("seed %d %s: the predictor took no step from the center", seed, c.name)
			}
		}
	}
}
