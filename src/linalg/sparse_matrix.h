// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_LINALG_SPARSE_MATRIX_H_
#define PME_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/vec_math.h"

namespace pme::linalg {

/// Immutable sparse matrix in Compressed Sparse Row (CSR) form.
///
/// This is the workhorse of the MaxEnt solver: the constraint matrix `A`
/// (one row per ME constraint, one column per probability term) is stored
/// here, and every dual-gradient evaluation performs one `Av` and one
/// `Transpose·v` product. Both products are cache-friendly single passes
/// over the CSR arrays.
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() = default;

  /// Adopts CSR arrays as they are: `row_offsets` holds rows + 1
  /// nondecreasing entries from 0 to nnz, and each row's column indices
  /// are strictly ascending and below `cols`. No sort, no dedupe, no
  /// zero dropping: callers assemble canonical rows themselves (see
  /// maxent::BuildProblem). Malformed arrays yield kInvalidArgument.
  static Result<SparseMatrix> FromCsr(size_t rows, size_t cols,
                                      std::vector<size_t> row_offsets,
                                      std::vector<uint32_t> col_indices,
                                      std::vector<double> values);

  /// Builds from a dense row-major matrix, dropping zeros (testing
  /// convenience).
  static SparseMatrix FromDense(const std::vector<std::vector<double>>& dense);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// y = A x. `x.size()` must equal `cols()`; `y` is resized to `rows()`.
  void Multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// y = A^T x. `x.size()` must equal `rows()`; `y` is resized to `cols()`.
  void TransposeMultiply(const std::vector<double>& x,
                         std::vector<double>& y) const;

  /// y = A x into a pre-sized buffer (`x.size == cols()`, `y.size ==
  /// rows()`). The dual hot path: no resize, no per-call bounds logic —
  /// a single unrolled, prefetch-friendly pass over the CSR arrays.
  void MultiplyInto(kernels::ConstSpan x, kernels::Span y) const;

  /// Fused gradient pass y = A x − b (`b.size == y.size == rows()`): the
  /// row product and the RHS subtraction in one sweep, saving a second
  /// pass over the gradient vector per dual evaluation.
  void MultiplyMinusInto(kernels::ConstSpan x, kernels::ConstSpan b,
                         kernels::Span y) const;

  /// MultiplyMinusInto that also writes squares = (A∘A) x, i.e.
  /// squares_r = Σ_k a_rk² x_k, in the same row sweep. `y` is
  /// bit-identical to the three-argument form. With x = p(λ) this is the
  /// diagonal of the dual Hessian A·diag(p)·Aᵀ.
  void MultiplyMinusInto(kernels::ConstSpan x, kernels::ConstSpan b,
                         kernels::Span y, kernels::Span squares) const;

  /// y = A^T x into a pre-sized buffer (`x.size == rows()`, `y.size ==
  /// cols()`).
  void TransposeMultiplyInto(kernels::ConstSpan x, kernels::Span y) const;

  /// Element lookup (O(row nnz)); 0.0 for structural zeros.
  double At(size_t row, size_t col) const;

  /// Dense copy (testing).
  std::vector<std::vector<double>> ToDense() const;

  /// Extracts a submatrix containing the given rows and columns, in the
  /// given order. Indices must be in range and (for columns) the mapping
  /// is positional: new column j corresponds to `col_ids[j]`.
  Result<SparseMatrix> Submatrix(const std::vector<uint32_t>& row_ids,
                                 const std::vector<uint32_t>& col_ids) const;

  /// CSR internals, exposed read-only for kernels that fuse operations
  /// (e.g. the dual objective computes exp(A^T lambda) in one pass).
  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;    // size rows_+1
  std::vector<uint32_t> col_indices_;  // size nnz
  std::vector<double> values_;         // size nnz
};

}  // namespace pme::linalg

#endif  // PME_LINALG_SPARSE_MATRIX_H_
