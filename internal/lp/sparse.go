package lp

import (
	"fmt"
	"sort"

	"soral/internal/linalg"
)

// Entry is one nonzero coefficient of a sparse row or column.
type Entry struct {
	Index int     // column (in a row) or row (in a column)
	Val   float64 // coefficient
}

// SparseMatrix is a sparse matrix stored by rows, with an optional
// column-wise view built on demand for normal-equation assembly.
type SparseMatrix struct {
	M, N int
	Rows [][]Entry

	cols [][]Entry // lazily built column view
}

// NewSparseMatrix allocates an m×n sparse matrix with empty rows.
func NewSparseMatrix(m, n int) *SparseMatrix {
	return &SparseMatrix{M: m, N: n, Rows: make([][]Entry, m)}
}

// Append adds a coefficient to row r. Duplicate columns in one row are
// allowed and are summed by Canonicalize.
func (a *SparseMatrix) Append(r, c int, v float64) {
	if r < 0 || r >= a.M || c < 0 || c >= a.N {
		panic(fmt.Sprintf("lp: Append(%d,%d) out of %dx%d", r, c, a.M, a.N))
	}
	//sorallint:ignore floatcmp exact-zero entries are dropped from the sparse structure by contract
	if v == 0 {
		return
	}
	a.Rows[r] = append(a.Rows[r], Entry{Index: c, Val: v})
	a.cols = nil
}

// Canonicalize sorts every row by column and merges duplicate entries.
func (a *SparseMatrix) Canonicalize() {
	for r, row := range a.Rows {
		if len(row) < 2 {
			continue
		}
		sort.Slice(row, func(i, j int) bool { return row[i].Index < row[j].Index })
		out := row[:0]
		for _, e := range row {
			if n := len(out); n > 0 && out[n-1].Index == e.Index {
				out[n-1].Val += e.Val
			} else {
				out = append(out, e)
			}
		}
		a.Rows[r] = out
	}
	a.cols = nil
}

// Cols returns (building if necessary) the column-wise view.
func (a *SparseMatrix) Cols() [][]Entry {
	if a.cols == nil {
		cols := make([][]Entry, a.N)
		for r, row := range a.Rows {
			for _, e := range row {
				cols[e.Index] = append(cols[e.Index], Entry{Index: r, Val: e.Val})
			}
		}
		a.cols = cols
	}
	return a.cols
}

// MulVec computes dst = A·x.
func (a *SparseMatrix) MulVec(dst, x []float64) {
	if len(x) != a.N || len(dst) != a.M {
		panic("lp: SparseMatrix.MulVec dimension mismatch")
	}
	for r, row := range a.Rows {
		var s float64
		for _, e := range row {
			s += e.Val * x[e.Index]
		}
		dst[r] = s
	}
}

// MulVecTrans computes dst = Aᵀ·x.
func (a *SparseMatrix) MulVecTrans(dst, x []float64) {
	if len(x) != a.M || len(dst) != a.N {
		panic("lp: SparseMatrix.MulVecTrans dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for r, row := range a.Rows {
		xr := x[r]
		//sorallint:ignore floatcmp exact-zero sparsity fast path; skipping only true zeros is lossless
		if xr == 0 {
			continue
		}
		for _, e := range row {
			dst[e.Index] += e.Val * xr
		}
	}
}

// NNZ returns the number of stored nonzeros.
func (a *SparseMatrix) NNZ() int {
	n := 0
	for _, row := range a.Rows {
		n += len(row)
	}
	return n
}

// ToDense expands the matrix for debugging and small-problem cross-checks.
func (a *SparseMatrix) ToDense() *linalg.Dense {
	d := linalg.NewDense(a.M, a.N)
	for r, row := range a.Rows {
		for _, e := range row {
			d.Add(r, e.Index, e.Val)
		}
	}
	return d
}

// AssembleNormal accumulates A·diag(d)·Aᵀ into the dense matrix dst
// (which must be M×M and is zeroed first).
func (a *SparseMatrix) AssembleNormal(dst *linalg.Dense, d []float64) {
	a.AssembleNormalWorkers(dst, d, 1)
}

// AssembleNormalWorkers is AssembleNormal on `workers` goroutines (≤ 0 means
// GOMAXPROCS). The rows of dst are partitioned into fixed contiguous ranges;
// each worker scans the full column view but accumulates only into its own
// rows, in exactly the serial (column, i, j) order. Every dst element is
// therefore written by one goroutine with the serial floating-point operation
// sequence, making the result bit-identical for every worker count
// (DESIGN.md §8). The redundant column scans cost O(nnz) per worker — noise
// next to the O(nnz·rows-per-column) accumulation they guard.
func (a *SparseMatrix) AssembleNormalWorkers(dst *linalg.Dense, d []float64, workers int) {
	if dst.Rows != a.M || dst.Cols != a.M || len(d) != a.N {
		panic("lp: AssembleNormal dimension mismatch")
	}
	cols := a.Cols() // build the lazy column view before fanning out
	if linalg.EffectiveWorkers(workers, a.M) == 1 {
		// Direct call: the solver's zero-allocation contract (Options.Work)
		// forbids the closure literal the parallel branch allocates.
		a.assembleNormalRows(dst, d, cols, 0, a.M)
		return
	}
	linalg.ParallelRanges(workers, a.M, func(lo, hi int) {
		a.assembleNormalRows(dst, d, cols, lo, hi)
	})
}

// assembleNormalRows accumulates the rows [lo, hi) of A·diag(d)·Aᵀ into dst:
// column-wise outer products, restricted to owned rows so concurrent range
// calls never write the same element and every element sees its terms in
// ascending column order exactly like the serial loop.
func (a *SparseMatrix) assembleNormalRows(dst *linalg.Dense, d []float64, cols [][]Entry, lo, hi int) {
	for r := lo; r < hi; r++ {
		row := dst.Row(r)
		for j := range row {
			row[j] = 0
		}
	}
	for c, col := range cols {
		w := d[c]
		//sorallint:ignore floatcmp exact-zero sparsity fast path; skipping only true zeros is lossless
		if w == 0 || len(col) == 0 {
			continue
		}
		for i := 0; i < len(col); i++ {
			ri := col[i].Index
			if ri < lo || ri >= hi {
				continue
			}
			vi := col[i].Val * w
			row := dst.Row(ri)
			for j := 0; j < len(col); j++ {
				row[col[j].Index] += vi * col[j].Val
			}
		}
	}
}
