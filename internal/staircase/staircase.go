// Package staircase solves multi-period ("staircase") linear programs with
// an interior-point method whose per-iteration linear algebra is linear in
// the horizon length.
//
// The offline problem P1 couples consecutive time slots only through the
// reconfiguration epigraph rows v_t ≥ x_t − x_{t−1}. When the standard-form
// rows are partitioned by time slot, every column touches rows of at most
// two adjacent blocks, so the interior-point normal equations A·diag(d)·Aᵀ
// are symmetric block-tridiagonal. This package provides an lp.NormalSolver
// backend that assembles and factorizes that block structure with
// linalg.BlockTriChol, letting package lp's Mehrotra loop run unchanged:
// an offline solve over T slots costs O(T·n³) instead of O((T·n)³).
package staircase

import (
	"errors"
	"fmt"
	"math"

	"soral/internal/linalg"
	"soral/internal/lp"
)

// Backend implements lp.NormalSolver for a standard-form matrix whose rows
// are partitioned into consecutive time blocks. The block-tridiagonal matrix
// and its factorization are workspaces reused across Factorize calls, so the
// per-iteration cost of a long Mehrotra solve allocates nothing.
type Backend struct {
	a        *lp.SparseMatrix
	rowBlock []int // block of every row
	sizes    []int // rows per block
	offsets  []int // starting flat index of each block (in permuted order)
	posInBlk []int // position of every row within its block

	// colsOfBlk[b] lists, in ascending order, the columns with at least one
	// entry in block b. A column coupling two adjacent blocks appears in
	// both lists; each appearance contributes only the products whose row
	// lives in that block, so every product is assembled exactly once.
	colsOfBlk [][]int

	workers int // kernel fan-out; ≤ 0 means GOMAXPROCS (see SetWorkers)

	mat     *linalg.BlockTriDiag
	fact    *linalg.BlockTriChol
	permRHS []float64
}

// SetWorkers bounds the goroutines of the assembly and factorization
// kernels, matching lp.Options.Workers semantics (0 means GOMAXPROCS,
// 1 means serial). Results are bit-identical for every worker count.
func (be *Backend) SetWorkers(w int) { be.workers = w }

// NewBackend validates the partition and prepares the workspace. rowBlock
// must assign every row of std.A a block in [0, numBlocks); every column of
// std.A may only touch rows of one block or two adjacent blocks.
func NewBackend(std *lp.Standard, rowBlock []int, numBlocks int) (*Backend, error) {
	a := std.A
	if len(rowBlock) != a.M {
		return nil, fmt.Errorf("staircase: %d row blocks for %d rows", len(rowBlock), a.M)
	}
	if numBlocks <= 0 {
		return nil, errors.New("staircase: need at least one block")
	}
	sizes := make([]int, numBlocks)
	for r, b := range rowBlock {
		if b < 0 || b >= numBlocks {
			return nil, fmt.Errorf("staircase: row %d assigned to block %d of %d", r, b, numBlocks)
		}
		sizes[b]++
	}
	for b, s := range sizes {
		if s == 0 {
			return nil, fmt.Errorf("staircase: block %d is empty", b)
		}
	}
	// Validate the adjacency property per column and record, per block, the
	// columns touching it (ascending, since c ascends) for block-owned
	// parallel assembly in Factorize.
	colsOfBlk := make([][]int, numBlocks)
	for c, col := range a.Cols() {
		lo, hi := numBlocks, -1
		for _, e := range col {
			b := rowBlock[e.Index]
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		if hi < 0 {
			continue
		}
		if hi-lo > 1 {
			return nil, fmt.Errorf("staircase: column %d spans blocks %d..%d (non-adjacent)", c, lo, hi)
		}
		colsOfBlk[lo] = append(colsOfBlk[lo], c)
		if hi != lo {
			colsOfBlk[hi] = append(colsOfBlk[hi], c)
		}
	}
	be := &Backend{
		a:         a,
		rowBlock:  rowBlock,
		sizes:     sizes,
		offsets:   make([]int, numBlocks+1),
		posInBlk:  make([]int, a.M),
		colsOfBlk: colsOfBlk,
		mat:       linalg.NewBlockTriDiag(sizes),
		permRHS:   make([]float64, a.M),
	}
	for b := 0; b < numBlocks; b++ {
		be.offsets[b+1] = be.offsets[b] + sizes[b]
	}
	counter := make([]int, numBlocks)
	for r, b := range rowBlock {
		be.posInBlk[r] = counter[b]
		counter[b]++
	}
	return be, nil
}

// Factorize implements lp.NormalSolver: assemble A·diag(d)·Aᵀ into the
// block-tridiagonal structure and factorize it.
//
// Assembly fans the blocks out across workers (SetWorkers): worker ownership
// follows the row block, so every matrix element of Diag[b] and Sub[b−1] is
// written only by the goroutine owning block b, in the same ascending
// (column, i, j) order as a serial pass — the assembled matrix is
// bit-identical for every worker count (DESIGN.md §8). With one worker a
// same-shape call allocates nothing (pinned by
// TestSolveStandardStaircaseZeroAlloc).
func (be *Backend) Factorize(d []float64) error {
	cols := be.a.Cols() // build the lazy column view before fanning out
	if linalg.EffectiveWorkers(be.workers, len(be.sizes)) == 1 {
		// Direct call: Factorize runs once per IPM iteration inside the
		// solver's zero-allocation loop, and the parallel branch's closure
		// literal is heap-allocated even when it would collapse to serial.
		be.assembleBlocks(d, cols, 0, len(be.sizes))
	} else {
		linalg.ParallelRanges(be.workers, len(be.sizes), func(blo, bhi int) {
			be.assembleBlocks(d, cols, blo, bhi)
		})
	}
	maxDiag := 0.0
	for _, blk := range be.mat.Diag {
		for i := 0; i < blk.Rows; i++ {
			if v := math.Abs(blk.At(i, i)); v > maxDiag {
				maxDiag = v
			}
		}
	}
	if maxDiag <= 0 {
		maxDiag = 1
	}
	if be.fact == nil {
		be.fact = &linalg.BlockTriChol{}
	}
	return be.fact.RefactorizeWorkers(be.mat, 1e-4*maxDiag+1e-10, be.workers)
}

// assembleBlocks assembles blocks [blo, bhi) of the block-tridiagonal normal
// matrix: every element of Diag[b] and Sub[b−1] is written only by the call
// owning block b, in the same ascending (column, i, j) order as a serial
// pass over all blocks.
func (be *Backend) assembleBlocks(d []float64, cols [][]lp.Entry, blo, bhi int) {
	for b := blo; b < bhi; b++ {
		be.mat.Diag[b].Zero()
		if b > 0 {
			be.mat.Sub[b-1].Zero()
		}
		for _, c := range be.colsOfBlk[b] {
			w := d[c]
			//sorallint:ignore floatcmp exact-zero sparsity fast path; zero-weight columns contribute nothing to the normal matrix
			if w == 0 {
				continue
			}
			col := cols[c]
			for i := 0; i < len(col); i++ {
				ri := col[i].Index
				if be.rowBlock[ri] != b {
					continue
				}
				pi := be.posInBlk[ri]
				vi := col[i].Val * w
				for j := 0; j < len(col); j++ {
					rj := col[j].Index
					bj := be.rowBlock[rj]
					pj := be.posInBlk[rj]
					prod := vi * col[j].Val
					switch {
					case bj == b:
						be.mat.Diag[b].Add(pi, pj, prod)
					case bj == b-1:
						be.mat.Sub[b-1].Add(pi, pj, prod)
					// bj == b+1 is assembled by block b+1's own pass
					// (the symmetric (j,i) products land in Sub[b]).
					default:
					}
				}
			}
		}
	}
}

// Solve implements lp.NormalSolver. It allocates nothing (pinned by
// TestSolveStandardStaircaseZeroAlloc).
func (be *Backend) Solve(x, b []float64) {
	// Permute into block order, solve, permute back.
	for r := range b {
		be.permRHS[be.offsets[be.rowBlock[r]]+be.posInBlk[r]] = b[r]
	}
	be.fact.Solve(be.permRHS, be.permRHS)
	for r := range x {
		x[r] = be.permRHS[be.offsets[be.rowBlock[r]]+be.posInBlk[r]]
	}
}

// Solve runs the full pipeline: convert the general-form problem to standard
// form, derive the row partition from the caller's constraint/variable slot
// maps, and run the Mehrotra loop with the structured backend.
//
// slotOfCons[k] is the time slot of general-form constraint k; slotOfVar[v]
// the slot of general-form variable v (used for the bound rows ToStandard
// synthesizes). numBlocks is the horizon length.
func Solve(p *lp.Problem, slotOfCons, slotOfVar []int, numBlocks int, opts lp.Options) (*lp.GeneralSolution, error) {
	std, err := p.ToStandard()
	if err != nil {
		return nil, err
	}
	rowBlock := make([]int, std.A.M)
	for r, origin := range std.RowOrigin {
		if origin >= 0 {
			rowBlock[r] = slotOfCons[origin]
		} else {
			rowBlock[r] = slotOfVar[-1-origin]
		}
	}
	be, err := NewBackend(std, rowBlock, numBlocks)
	if err != nil {
		return nil, err
	}
	be.SetWorkers(opts.Workers)
	sol, err := lp.SolveStandard(std, be, opts)
	if err != nil {
		return nil, err
	}
	x := std.Recover(sol.X)
	return &lp.GeneralSolution{
		Status: sol.Status,
		X:      x,
		Obj:    p.Objective(x),
		Iters:  sol.Iters,
	}, nil
}
