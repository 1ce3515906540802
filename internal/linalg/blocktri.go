package linalg

import (
	"errors"
	"fmt"
)

// BlockTriDiag is a symmetric block-tridiagonal matrix
//
//	⎡ D₀  E₁ᵀ          ⎤
//	⎢ E₁  D₁  E₂ᵀ      ⎥
//	⎢     E₂  D₂  ⋱    ⎥
//	⎣         ⋱   ⋱    ⎦
//
// with square diagonal blocks D_t (sizes may vary) and sub-diagonal blocks
// E_t of shape len(D_t) × len(D_{t−1}). Only D and the sub-diagonal E are
// stored; symmetry is implicit.
//
// This is exactly the sparsity pattern of the interior-point normal equations
// of a multi-period optimization problem whose constraints couple only
// adjacent periods, which is what makes the staircase LP solver linear in the
// horizon length.
type BlockTriDiag struct {
	Diag []*Dense // T diagonal blocks, Diag[t] is n_t × n_t
	Sub  []*Dense // T−1 sub-diagonal blocks, Sub[t] couples block t+1 to block t (n_{t+1} × n_t)
}

// NewBlockTriDiag allocates zero blocks for the given block sizes.
func NewBlockTriDiag(sizes []int) *BlockTriDiag {
	m := &BlockTriDiag{
		Diag: make([]*Dense, len(sizes)),
		Sub:  make([]*Dense, 0, len(sizes)),
	}
	for t, n := range sizes {
		m.Diag[t] = NewDense(n, n)
		if t > 0 {
			m.Sub = append(m.Sub, NewDense(n, sizes[t-1]))
		}
	}
	return m
}

// NumBlocks returns the number of diagonal blocks.
func (m *BlockTriDiag) NumBlocks() int { return len(m.Diag) }

// Dim returns the total dimension Σ n_t.
func (m *BlockTriDiag) Dim() int {
	n := 0
	for _, d := range m.Diag {
		n += d.Rows
	}
	return n
}

// Offsets returns the starting index of each block within a flat vector.
func (m *BlockTriDiag) Offsets() []int {
	off := make([]int, len(m.Diag)+1)
	for t, d := range m.Diag {
		off[t+1] = off[t] + d.Rows
	}
	return off
}

// Validate checks block shape consistency.
func (m *BlockTriDiag) Validate() error {
	if len(m.Sub) != len(m.Diag)-1 && !(len(m.Diag) == 0 && len(m.Sub) == 0) {
		return fmt.Errorf("linalg: block-tridiag has %d diagonal and %d sub-diagonal blocks", len(m.Diag), len(m.Sub))
	}
	for t, d := range m.Diag {
		if d.Rows != d.Cols {
			return fmt.Errorf("linalg: diagonal block %d is %dx%d", t, d.Rows, d.Cols)
		}
		if t > 0 {
			e := m.Sub[t-1]
			if e.Rows != d.Rows || e.Cols != m.Diag[t-1].Rows {
				return fmt.Errorf("linalg: sub-diagonal block %d is %dx%d, want %dx%d",
					t-1, e.Rows, e.Cols, d.Rows, m.Diag[t-1].Rows)
			}
		}
	}
	return nil
}

// MulVec computes dst = M·x for the full symmetric matrix.
func (m *BlockTriDiag) MulVec(dst, x []float64) {
	off := m.Offsets()
	if len(x) != off[len(off)-1] || len(dst) != len(x) {
		panic("linalg: BlockTriDiag.MulVec dimension mismatch")
	}
	tmp := make([]float64, 0)
	for t, d := range m.Diag {
		xt := x[off[t]:off[t+1]]
		dt := dst[off[t]:off[t+1]]
		if cap(tmp) < len(dt) {
			tmp = make([]float64, len(dt))
		}
		tmp = tmp[:len(dt)]
		d.MulVec(tmp, xt)
		copy(dt, tmp)
	}
	for t, e := range m.Sub {
		// e couples block t+1 (rows) with block t (cols).
		xlo := x[off[t]:off[t+1]]
		xhi := x[off[t+1]:off[t+2]]
		dlo := dst[off[t]:off[t+1]]
		dhi := dst[off[t+1]:off[t+2]]
		// dhi += E·xlo
		th := make([]float64, len(dhi))
		e.MulVec(th, xlo)
		Axpy(1, th, dhi)
		// dlo += Eᵀ·xhi
		tl := make([]float64, len(dlo))
		e.MulVecTrans(tl, xhi)
		Axpy(1, tl, dlo)
	}
}

// BlockTriChol is the block Cholesky factorization of a symmetric positive
// definite block-tridiagonal matrix: M = L·Lᵀ with L block lower bidiagonal.
// The zero BlockTriChol is a valid workspace: Refactorize fills it and
// reuses every internal buffer (per-block factors, coupling blocks, Schur
// scratch, solve scratch) across calls with the same block structure.
type BlockTriChol struct {
	factors []*Cholesky // per-block lower-triangular factors L_t
	offdiag []*Dense    // F_t = E_t · L_{t−1}⁻ᵀ, t = 1..T−1 (indexed t−1)
	offsets []int

	schur   []*Dense  // reusable per-block Schur complement workspaces
	scratch []float64 // per-solve coupling scratch (max block size)
}

// NewBlockTriChol factorizes M. maxShift controls per-block diagonal
// regularization exactly as in NewCholesky.
func NewBlockTriChol(m *BlockTriDiag, maxShift float64) (*BlockTriChol, error) {
	f := &BlockTriChol{}
	if err := f.RefactorizeWorkers(m, maxShift, 1); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactorize factorizes M into the receiver, reusing its buffers when the
// block structure matches the previous call. On error the factor contents
// are undefined and must not be used for solves. A same-structure call
// allocates nothing (pinned by TestRefactorizeSolveZeroAlloc).
func (f *BlockTriChol) Refactorize(m *BlockTriDiag, maxShift float64) error {
	return f.RefactorizeWorkers(m, maxShift, 1)
}

// RefactorizeWorkers is Refactorize with the per-block kernels — the F_t
// coupling solves, the Schur complement updates S_t = D_t − F_t·F_tᵀ, and
// the dense block factorizations — run on `workers` goroutines. The block
// recurrence itself is inherently sequential (block t needs L_{t−1}), so
// parallelism lives inside each block step; results are bit-identical to
// serial for every worker count because every output row of every kernel is
// owned by one worker and computed in serial order.
func (f *BlockTriChol) RefactorizeWorkers(m *BlockTriDiag, maxShift float64, workers int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	T := len(m.Diag)
	if T == 0 {
		return errors.New("linalg: empty block-tridiagonal matrix")
	}
	if len(f.factors) != T {
		f.factors = make([]*Cholesky, T)
		f.offdiag = make([]*Dense, T-1)
		f.schur = make([]*Dense, T)
	}
	if len(f.offsets) != T+1 {
		f.offsets = make([]int, T+1)
	}
	for t, d := range m.Diag {
		f.offsets[t+1] = f.offsets[t] + d.Rows
	}
	maxBlock := 0
	for _, d := range m.Diag {
		if d.Rows > maxBlock {
			maxBlock = d.Rows
		}
	}
	if len(f.scratch) < maxBlock {
		f.scratch = make([]float64, maxBlock)
	}
	var prev *Cholesky
	for t := 0; t < T; t++ {
		d := m.Diag[t]
		s := f.schur[t]
		if s == nil || s.Rows != d.Rows || s.Cols != d.Cols {
			s = NewDense(d.Rows, d.Cols)
			f.schur[t] = s
		}
		copy(s.Data, d.Data)
		if t > 0 {
			e := m.Sub[t-1]
			ft := f.offdiag[t-1]
			if ft == nil || ft.Rows != e.Rows || ft.Cols != e.Cols {
				ft = NewDense(e.Rows, e.Cols)
				f.offdiag[t-1] = ft
			}
			// F_t = E_t · L_{t−1}⁻ᵀ: solve L_{t−1}·(F_t row)ᵀ = (E_t row)ᵀ
			// per row; the rows are independent. The serial collapse calls
			// the kernels directly — closure literals would be heap-allocated
			// even on the collapsed path, and Refactorize sits inside the
			// solvers' zero-allocation loop (see EffectiveWorkers).
			if EffectiveWorkers(workers, e.Rows) == 1 {
				blockCouplingSolve(ft, e, prev, 0, e.Rows)
			} else {
				lp := prev
				ParallelRanges(workers, e.Rows, func(lo, hi int) {
					blockCouplingSolve(ft, e, lp, lo, hi)
				})
			}
			// S_t = D_t − F_t·F_tᵀ, row ranges independent.
			if EffectiveWorkers(workers, ft.Rows) == 1 {
				blockSchurUpdate(s, ft, 0, ft.Rows)
			} else {
				ParallelRanges(workers, ft.Rows, func(lo, hi int) {
					blockSchurUpdate(s, ft, lo, hi)
				})
			}
		}
		if f.factors[t] == nil {
			f.factors[t] = &Cholesky{}
		}
		if err := f.factors[t].RefactorizeWorkers(s, maxShift, workers); err != nil {
			return fmt.Errorf("linalg: block %d: %w", t, err)
		}
		prev = f.factors[t]
	}
	return nil
}

// blockCouplingSolve fills rows [lo, hi) of F = E·L⁻ᵀ by forward-substituting
// each row of E against the previous block's factor.
func blockCouplingSolve(ft, e *Dense, prev *Cholesky, lo, hi int) {
	for r := lo; r < hi; r++ {
		prev.SolveLower(ft.Row(r), e.Row(r))
	}
}

// blockSchurUpdate applies rows [lo, hi) of S −= F·Fᵀ.
func blockSchurUpdate(s, ft *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		ri := ft.Row(i)
		srow := s.Row(i)
		for j := 0; j < ft.Rows; j++ {
			srow[j] -= Dot(ri, ft.Row(j))
		}
	}
}

// Solve solves M·x = b, writing into x (which may alias b). It allocates
// nothing (pinned by TestRefactorizeSolveZeroAlloc).
func (f *BlockTriChol) Solve(x, b []float64) {
	off := f.offsets
	n := off[len(off)-1]
	if len(x) != n || len(b) != n {
		panic("linalg: BlockTriChol.Solve dimension mismatch")
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	T := len(f.factors)
	// Forward: y_t = L_t⁻¹ (b_t − F_t y_{t−1}).
	for t := 0; t < T; t++ {
		xt := x[off[t]:off[t+1]]
		if t > 0 {
			ft := f.offdiag[t-1]
			prev := x[off[t-1]:off[t]]
			tmp := f.scratch[:len(xt)]
			ft.MulVec(tmp, prev)
			SubTo(xt, xt, tmp)
		}
		f.factors[t].SolveLower(xt, xt)
	}
	// Backward: x_t = L_t⁻ᵀ (y_t − F_{t+1}ᵀ x_{t+1}).
	for t := T - 1; t >= 0; t-- {
		xt := x[off[t]:off[t+1]]
		if t < T-1 {
			ft := f.offdiag[t]
			next := x[off[t+1]:off[t+2]]
			tmp := f.scratch[:len(xt)]
			ft.MulVecTrans(tmp, next)
			SubTo(xt, xt, tmp)
		}
		f.factors[t].SolveUpper(xt, xt)
	}
}

// Shift returns the maximum diagonal regularization applied to any block.
func (f *BlockTriChol) Shift() float64 {
	var s float64
	for _, c := range f.factors {
		if c.Shift > s {
			s = c.Shift
		}
	}
	return s
}
