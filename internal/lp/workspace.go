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

	// Previous optimal iterate, stashed after an Optimal solve when
	// Options.WarmStart is on. The next same-shape solve starts from a
	// re-centered copy instead of the cold Mehrotra point (DESIGN.md §13).
	// prevM/prevN record the shape the iterate belongs to; a solve of a
	// different shape ignores it (and overwrites it on success).
	prevX, prevS []float64
	prevY        []float64
	prevM, prevN int
	havePrev     bool
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

// warmReady reports whether the workspace holds a previous optimal iterate
// matching an m-row, n-column standard form.
func (w *Workspace) warmReady(m, n int) bool {
	return w.havePrev && w.prevM == m && w.prevN == n
}

// stashWarm copies the current (optimal) iterate into the prev buffers so
// the next same-shape solve can warm-start from it.
func (w *Workspace) stashWarm(m, n int) {
	if len(w.prevX) < n {
		w.prevX = make([]float64, n)
		w.prevS = make([]float64, n)
	}
	if len(w.prevY) < m {
		w.prevY = make([]float64, m)
	}
	copy(w.prevX[:n], w.x[:n])
	copy(w.prevS[:n], w.s[:n])
	copy(w.prevY[:m], w.y[:m])
	w.prevM, w.prevN = m, n
	w.havePrev = true
}

// clearWarm drops the stashed iterate. Called after a cold solve fails to
// re-stash: the stale iterate already drove (or would drive) a doomed warm
// attempt on this shape, and keeping it would re-run that attempt before
// every later fallback, roughly doubling work on persistently hard instances.
func (w *Workspace) clearWarm() { w.havePrev = false }

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
