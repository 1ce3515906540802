// Package linalg provides the dense and block-structured linear algebra
// kernels that the soral optimization solvers are built on.
//
// It deliberately implements only what the interior-point solvers need, but implements those pieces carefully:
//
//   - level-1 vector kernels (Dot, Axpy, norms) on raw []float64,
//   - a dense row-major matrix type with multiply and transpose-multiply,
//   - Cholesky factorization with optional diagonal regularization for
//     nearly-singular normal-equation systems,
//   - LU factorization with partial pivoting for general square systems,
//   - a symmetric positive definite block-tridiagonal Cholesky factorization,
//     which is the kernel that makes multi-period ("staircase") interior-point
//     solves linear in the horizon length instead of cubic.
//
// All routines are deterministic and allocate only when constructing new
// objects; factorizations can be reused across solves.
package linalg
