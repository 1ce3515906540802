package convex

import (
	"errors"
	"fmt"
)

// Workspace owns the interior-point solvers' per-iteration buffers:
// gradient and search-direction vectors, the constraint slacks at the
// iterate and at a line-search trial, G·dx, the primal–dual loop's
// multipliers, residuals, directions and trial point, and the Newton
// system with its block factors and border updates. A solve that carries a Workspace
// (Options.Work) performs no per-Newton-iteration allocation, and repeated
// solves of same-shaped problems — the online algorithm's slot-after-slot P2
// solves — reuse every buffer. A Workspace must not be shared by concurrent
// solves.
type Workspace struct {
	n, m int

	grad, fullGrad, dx     []float64 // n-sized
	slack, slackTrial, gdx []float64 // m-sized

	// pd is the primal–dual loop's view: its own buffers, sized by
	// ensurePrimalDual, and the ones above it shares.
	pd pdBuffers

	ns NewtonSystem
}

// NewWorkspace returns an empty workspace; buffers are sized on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes every buffer for n variables and m constraint rows, reusing
// existing allocations whenever they are already big enough.
func (w *Workspace) ensure(n, m int) {
	if w.n < n {
		w.grad = make([]float64, n)
		w.fullGrad = make([]float64, n)
		w.dx = make([]float64, n)
	}
	if w.m < m {
		w.slack = make([]float64, m)
		w.slackTrial = make([]float64, m)
		w.gdx = make([]float64, m)
	}
	w.n, w.m = n, m
}

// ensurePrimalDual sizes the primal–dual loop's buffers for n variables and
// m rows, after ensure, reusing existing allocations whenever they are
// already big enough, and returns them.
func (w *Workspace) ensurePrimalDual(n, m int) *pdBuffers {
	b := &w.pd
	for _, v := range []*[]float64{&b.rd, &b.xt, &b.rdt, &b.rq, &b.corr} {
		*v = growFloats(*v, n)
	}
	for _, v := range []*[]float64{&b.z, &b.rp, &b.rc, &b.ds, &b.dz, &b.dsAff, &b.dzAff, &b.zt} {
		*v = growFloats(*v, m)
	}
	b.grad, b.g, b.dx = w.grad[:n], w.fullGrad[:n], w.dx[:n]
	b.s, b.st, b.u = w.slack[:m], w.slackTrial[:m], w.gdx[:m]
	return b
}

// NewtonStep writes into dx the Newton direction Solve takes for p at the
// strictly feasible x with barrier weight t, and returns the number of
// border columns the step's rows and groups formed and the rank of the
// border the block factors were updated with (DESIGN.md §15). It lets
// tests compare the structured step with the dense one at a chosen point.
func (w *Workspace) NewtonStep(p *Problem, x []float64, t float64, dx []float64) (cols, rank int, err error) {
	n, m := p.G.N, p.G.M
	if len(x) != n || len(dx) != n || len(p.H) != m {
		return 0, 0, fmt.Errorf("convex: NewtonStep on %d variables and %d rows with len(x) = %d, len(dx) = %d, len(h) = %d",
			n, m, len(x), len(dx), len(p.H))
	}
	w.ensure(n, m)
	ns := &w.ns
	if err := ns.setup(p.Blocks, p.G); err != nil {
		return 0, 0, err
	}
	slack := w.slack[:m]
	exactSlack(p.G, p.H, x, slack)
	for _, s := range slack {
		if !(s > 0) {
			return 0, 0, errors.New("convex: NewtonStep at a point that is not strictly feasible")
		}
	}
	assemble(p, ns, x, slack, t, w.grad[:n], w.fullGrad[:n])
	if err := ns.factor(1); err != nil {
		return 0, 0, err
	}
	ns.solve(dx, w.fullGrad[:n])
	return len(ns.bw), ns.rank, nil
}
