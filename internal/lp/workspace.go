package lp

// Workspace owns every buffer a standard-form interior-point solve needs:
// the iterate/direction/residual vectors of the Mehrotra loop and the dense
// normal-equation backend (the M×M matrix and its Cholesky factor). A solve
// that carries a Workspace performs no per-iteration slice allocation, and
// repeated solves of same-shaped problems — the online loop deciding slot
// after slot, a receding-horizon controller re-solving its window every slot
// — allocate nothing at all after the first call.
//
// Contracts:
//
//   - A Workspace must not be shared by concurrent solves. Give each
//     goroutine its own (they are cheap: buffers grow lazily to the largest
//     problem seen).
//   - A Solution produced with a Workspace aliases the workspace buffers
//     (X, Y, S point into it); its vectors are valid only until the next
//     solve with the same workspace. Copy what must outlive it —
//     Standard.Recover and equilibrated.recover already do.
type Workspace struct {
	m, n int

	// n-sized (one per standard-form column).
	x, s, ones, aty, rc, rxs, dvec, ds, dx, dxAff, dsAff, tmpN []float64
	// m-sized (one per standard-form row).
	y, tmpM, ac, rb, rhsM, dy []float64

	normal *DenseNormal
}

// NewWorkspace returns an empty workspace; buffers are sized on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes every Mehrotra buffer for an m-row, n-column standard form,
// reusing the existing allocations whenever they are already big enough.
func (w *Workspace) ensure(m, n int) {
	if w.n < n {
		w.x = make([]float64, n)
		w.s = make([]float64, n)
		w.ones = make([]float64, n)
		w.aty = make([]float64, n)
		w.rc = make([]float64, n)
		w.rxs = make([]float64, n)
		w.dvec = make([]float64, n)
		w.ds = make([]float64, n)
		w.dx = make([]float64, n)
		w.dxAff = make([]float64, n)
		w.dsAff = make([]float64, n)
		w.tmpN = make([]float64, n)
	}
	if w.m < m {
		w.y = make([]float64, m)
		w.tmpM = make([]float64, m)
		w.ac = make([]float64, m)
		w.rb = make([]float64, m)
		w.rhsM = make([]float64, m)
		w.dy = make([]float64, m)
	}
	w.m, w.n = m, n
}

// normalFor returns the workspace's dense normal-equation backend for A,
// reusing the assembled matrix and Cholesky factor buffers when the row
// dimension matches the previous problem.
func (w *Workspace) normalFor(a *SparseMatrix, workers int) *DenseNormal {
	if w.normal == nil || w.normal.mat.Rows != a.M {
		w.normal = NewDenseNormal(a)
	} else {
		w.normal.A = a
	}
	w.normal.Workers = workers
	return w.normal
}
