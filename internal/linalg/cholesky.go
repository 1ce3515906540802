package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization encounters
// a non-positive pivot that regularization could not repair.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds a lower-triangular Cholesky factor L with A = L·Lᵀ.
// A zero Cholesky is a valid factorization workspace: Refactorize fills it,
// reusing the L buffer across calls when the dimension is unchanged.
type Cholesky struct {
	N int
	L *Dense
	// Shift is the diagonal regularization that was actually added to A
	// before factorizing (0 when the matrix was positive definite as given).
	Shift float64

	// invDiag is the per-panel reciprocal-pivot scratch of the blocked
	// factorization, kept so refactorizations allocate nothing.
	invDiag []float64
}

// cholBlockSize is the panel width of the blocked right-looking
// factorization. 48 keeps three panel rows inside L1 while leaving trailing
// updates big enough to split across workers.
const cholBlockSize = 48

// NewCholesky factorizes the symmetric positive definite matrix A (only the
// lower triangle is read). If the factorization hits a non-positive pivot and
// maxShift > 0, it retries with geometrically increasing diagonal shifts up
// to maxShift; the shift that succeeded is recorded in the result.
func NewCholesky(a *Dense, maxShift float64) (*Cholesky, error) {
	return NewCholeskyWorkers(a, maxShift, 1)
}

// NewCholeskyWorkers is NewCholesky with the trailing-submatrix updates of
// the blocked factorization split across `workers` goroutines (≤ 0 means
// GOMAXPROCS). The result is bit-identical for every worker count: every
// element of L is computed by exactly one worker in the serial operation
// order (see DESIGN.md §8).
func NewCholeskyWorkers(a *Dense, maxShift float64, workers int) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.RefactorizeWorkers(a, maxShift, workers); err != nil {
		return nil, err
	}
	return c, nil
}

// Refactorize factorizes A into the receiver, reusing its L buffer when the
// dimension matches the previous factorization. On error the receiver's
// factor contents are undefined and must not be used for solves. A
// same-dimension call allocates nothing (pinned by
// TestRefactorizeSolveZeroAlloc).
func (c *Cholesky) Refactorize(a *Dense, maxShift float64) error {
	return c.RefactorizeWorkers(a, maxShift, 1)
}

// RefactorizeWorkers is Refactorize on `workers` goroutines.
func (c *Cholesky) RefactorizeWorkers(a *Dense, maxShift float64, workers int) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Cholesky on %dx%d matrix", a.Rows, a.Cols)
	}
	if !AllFinite(a.Data) {
		return fmt.Errorf("linalg: Cholesky input has non-finite entries")
	}
	if math.IsInf(maxShift, 1) || math.IsNaN(maxShift) {
		return fmt.Errorf("linalg: invalid maxShift %g", maxShift)
	}
	n := a.Rows
	if c.L == nil || c.L.Rows != n || c.L.Cols != n {
		c.L = NewDense(n, n)
	}
	if len(c.invDiag) < cholBlockSize {
		c.invDiag = make([]float64, cholBlockSize)
	}
	c.N = n
	shift := 0.0
	for attempt := 0; ; attempt++ {
		loadLower(c.L, a, shift)
		if factorLowerBlocked(c.L, c.invDiag, workers) {
			c.Shift = shift
			return nil
		}
		if maxShift <= 0 {
			return ErrNotPositiveDefinite
		}
		if attempt == 0 {
			// Start from a scale-aware tiny shift.
			scale := 0.0
			for i := 0; i < n; i++ {
				if d := math.Abs(a.At(i, i)); d > scale {
					scale = d
				}
			}
			if scale <= 0 {
				scale = 1
			}
			shift = 1e-12 * scale
		} else {
			shift *= 100
		}
		if shift > maxShift {
			return ErrNotPositiveDefinite
		}
	}
}

// loadLower copies A's lower triangle into L (upper triangle zeroed) and adds
// the regularization shift to the diagonal. Adding the shift before any
// update keeps the per-element operation sequence identical to the reference
// column algorithm, which starts each pivot from a(j,j)+shift.
func loadLower(l, a *Dense, shift float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		lrow, arow := l.Row(i), a.Row(i)
		copy(lrow[:i+1], arow[:i+1])
		for j := i + 1; j < n; j++ {
			lrow[j] = 0
		}
		lrow[i] += shift
	}
}

// factorLowerBlocked runs the blocked right-looking Cholesky factorization
// in place on the lower triangle of l. Per panel [k0,k1): the diagonal block
// is factorized serially, the panel below it is solved in parallel row
// ranges, and the trailing submatrix update — the O(n³) bulk — is split
// across workers with a strided row partition (the trailing rows grow
// linearly in cost, so striding balances the triangle where contiguous
// ranges would load the last worker with half the work).
//
// Every element receives its updates in ascending-k order exactly like the
// reference unblocked column algorithm (tryCholeskyUnblocked), and each
// element is owned by exactly one goroutine, so the factor is bit-identical
// to the serial and to the unblocked result for every worker count.
func factorLowerBlocked(l *Dense, inv []float64, workers int) bool {
	n := l.Rows
	// The serial collapse must not create the parallel branch's closures:
	// they are heap-allocated at their creation site whenever the enclosing
	// function can spawn goroutines, and Refactorize sits inside the solvers'
	// zero-allocation loop (see EffectiveWorkers).
	serial := EffectiveWorkers(workers, n) == 1
	for k0 := 0; k0 < n; k0 += cholBlockSize {
		k1 := k0 + cholBlockSize
		if k1 > n {
			k1 = n
		}
		// Factor the diagonal block in place (at most cholBlockSize², and
		// every later step of this panel depends on it).
		for j := k0; j < k1; j++ {
			lrowj := l.Row(j)
			d := lrowj[j]
			for k := k0; k < j; k++ {
				d -= lrowj[k] * lrowj[k]
			}
			if d <= 0 || math.IsNaN(d) {
				return false
			}
			d = math.Sqrt(d)
			lrowj[j] = d
			inv[j-k0] = 1 / d
			for i := j + 1; i < k1; i++ {
				lrowi := l.Row(i)
				s := lrowi[j]
				for k := k0; k < j; k++ {
					s -= lrowi[k] * lrowj[k]
				}
				lrowi[j] = s * inv[j-k0]
			}
		}
		if k1 == n {
			break
		}
		if serial {
			cholPanelSolve(l, inv, k0, k1, 0, n-k1)
			cholTrailingUpdate(l, k0, k1, n, 0, 1)
			continue
		}
		// Panel solve: rows below the panel against the factored block.
		// Uniform cost per row, so contiguous ranges balance perfectly.
		// The closure is allocated on this parallel branch only, amortized
		// over the O(n²) panel; the serial path above never builds it.
		ParallelRanges(workers, n-k1, func(lo, hi int) {
			cholPanelSolve(l, inv, k0, k1, lo, hi)
		})
		// Trailing update: L22 −= L21·L21ᵀ on the lower triangle. The
		// trailing rows grow linearly in cost, so striding balances the
		// triangle where contiguous ranges would load the last worker with
		// half the work.
		ParallelStrided(workers, n-k1, func(start, stride int) {
			cholTrailingUpdate(l, k0, k1, n, start, stride)
		})
	}
	return true
}

// cholPanelSolve solves rows k1+lo .. k1+hi−1 of the panel [k0,k1) against
// its factored diagonal block.
func cholPanelSolve(l *Dense, inv []float64, k0, k1, lo, hi int) {
	for i := k1 + lo; i < k1+hi; i++ {
		lrowi := l.Row(i)
		for j := k0; j < k1; j++ {
			lrowj := l.Row(j)
			s := lrowi[j]
			for k := k0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s * inv[j-k0]
		}
	}
}

// cholTrailingUpdate applies L22 −= L21·L21ᵀ to the strided trailing rows
// start, start+stride, … (relative to k1) on the lower triangle.
func cholTrailingUpdate(l *Dense, k0, k1, n, start, stride int) {
	for r := start; r < n-k1; r += stride {
		i := k1 + r
		lrowi := l.Row(i)
		for j := k1; j <= i; j++ {
			lrowj := l.Row(j)
			v := lrowi[j]
			for k := k0; k < k1; k++ {
				v -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = v
		}
	}
}

// tryCholeskyUnblocked is the reference single-pass column Cholesky the
// blocked factorization must reproduce bit-for-bit; the determinism tests
// cross-check factorLowerBlocked against it on randomized inputs.
func tryCholeskyUnblocked(a, l *Dense, shift float64) bool {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j) + shift
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		d = math.Sqrt(d)
		lrowj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s * inv
		}
	}
	return true
}

// ConditionEstimate returns a cheap lower bound on the 2-norm condition
// number of the factorized matrix: (max L_ii / min L_ii)². The diagonal of
// the Cholesky factor brackets the extreme eigenvalues, so this catches the
// near-singular systems that precede numerical breakdowns without an extra
// O(n³) pass.
func (c *Cholesky) ConditionEstimate() float64 {
	if c.N == 0 {
		return 1
	}
	minD, maxD := math.Inf(1), 0.0
	for i := 0; i < c.N; i++ {
		d := c.L.At(i, i)
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD <= 0 {
		return math.Inf(1)
	}
	r := maxD / minD
	return r * r
}

// Solve solves A·x = b using the factorization, writing the result into x
// (which may alias b). It allocates nothing (pinned by
// TestRefactorizeSolveZeroAlloc).
func (c *Cholesky) Solve(x, b []float64) {
	if len(b) != c.N || len(x) != c.N {
		panic("linalg: Cholesky.Solve dimension mismatch")
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	c.SolveInPlace(x)
}

// SolveInPlace solves A·x = b where x initially holds b.
func (c *Cholesky) SolveInPlace(x []float64) {
	n := c.N
	l := c.L
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		//sorallint:ignore divguard L diagonal is positive by construction (tryCholesky rejects non-positive pivots)
		x[i] = s / row[i]
	}
	// Backward substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

// SolveLower solves L·y = b (forward substitution only), writing into y.
func (c *Cholesky) SolveLower(y, b []float64) {
	if &y[0] != &b[0] {
		copy(y, b)
	}
	for i := 0; i < c.N; i++ {
		row := c.L.Row(i)
		s := y[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		//sorallint:ignore divguard L diagonal is positive by construction (tryCholesky rejects non-positive pivots)
		y[i] = s / row[i]
	}
}

// SolveUpper solves Lᵀ·x = b (backward substitution only), writing into x.
func (c *Cholesky) SolveUpper(x, b []float64) {
	if &x[0] != &b[0] {
		copy(x, b)
	}
	for i := c.N - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < c.N; k++ {
			s -= c.L.At(k, i) * x[k]
		}
		x[i] = s / c.L.At(i, i)
	}
}
