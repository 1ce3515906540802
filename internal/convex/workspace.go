package convex

// Workspace owns the barrier solver's per-iteration buffers: gradient and
// search-direction vectors, the constraint slacks at the iterate and at a
// line-search trial, G·dx, and the Newton system with its block factors and
// border updates. A solve that carries a Workspace (Options.Work) performs
// no per-Newton-iteration allocation, and repeated solves of same-shaped
// problems — the online algorithm's slot-after-slot P2 solves — reuse every
// buffer. A Workspace must not be shared by concurrent solves.
type Workspace struct {
	n, m int

	grad, fullGrad, dx, xTrial []float64 // n-sized
	slack, slackTrial, gdx     []float64 // m-sized

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
		w.xTrial = make([]float64, n)
	}
	if w.m < m {
		w.slack = make([]float64, m)
		w.slackTrial = make([]float64, m)
		w.gdx = make([]float64, m)
	}
	w.n, w.m = n, m
}
