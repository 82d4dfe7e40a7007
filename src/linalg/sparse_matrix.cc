#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pme::linalg {

Result<SparseMatrix> SparseMatrix::FromCsr(size_t rows, size_t cols,
                                           std::vector<size_t> row_offsets,
                                           std::vector<uint32_t> col_indices,
                                           std::vector<double> values) {
  if (row_offsets.size() != rows + 1 || row_offsets.front() != 0 ||
      row_offsets.back() != col_indices.size() ||
      col_indices.size() != values.size()) {
    return Status::InvalidArgument("CSR arrays disagree on shape");
  }
  for (size_t r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      return Status::InvalidArgument("CSR row offsets decrease");
    }
    for (size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      if (col_indices[k] >= cols ||
          (k > row_offsets[r] && col_indices[k] <= col_indices[k - 1])) {
        return Status::InvalidArgument(
            "CSR column indices out of range or not strictly ascending");
      }
    }
  }
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_ = std::move(row_offsets);
  m.col_indices_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::FromDense(
    const std::vector<std::vector<double>>& dense) {
  const size_t cols = dense.empty() ? 0 : dense[0].size();
  std::vector<size_t> offsets{0};
  std::vector<uint32_t> col_indices;
  std::vector<double> values;
  for (const auto& row : dense) {
    assert(row.size() == cols);
    for (size_t c = 0; c < cols; ++c) {
      if (row[c] == 0.0) continue;
      col_indices.push_back(static_cast<uint32_t>(c));
      values.push_back(row[c]);
    }
    offsets.push_back(col_indices.size());
  }
  return std::move(FromCsr(dense.size(), cols, std::move(offsets),
                           std::move(col_indices), std::move(values)))
      .value();
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 1); }
inline void PrefetchWrite(const void* p) { __builtin_prefetch(p, 1, 1); }
#else
inline void PrefetchRead(const void*) {}
inline void PrefetchWrite(const void*) {}
#endif

/// How many nonzeros ahead the gather/scatter targets are prefetched.
/// The CSR arrays themselves stream sequentially (the hardware prefetcher
/// handles them); only the indirect x[col] / y[col] accesses need help.
constexpr size_t kPrefetchDistance = 16;

/// One CSR row's dot product against x: four independent partial sums
/// expose ILP across the FMA chain, and the gathered x entries a few
/// nonzeros ahead are prefetched. Shared by MultiplyInto and the fused
/// MultiplyMinusInto kernels so they cannot drift apart. With kSquares,
/// the same sweep also accumulates Σ a_k² x_k into `*squares`; the dot
/// keeps the same summation order, so it is bit-identical either way.
template <bool kSquares>
inline double RowDot(const uint32_t* ci, const double* va, const double* xd,
                     size_t k, size_t end, size_t nnz,
                     double* squares = nullptr) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  for (; k + 4 <= end; k += 4) {
    if (k + kPrefetchDistance < nnz) {
      PrefetchRead(xd + ci[k + kPrefetchDistance]);
    }
    const double t0 = va[k] * xd[ci[k]];
    const double t1 = va[k + 1] * xd[ci[k + 1]];
    const double t2 = va[k + 2] * xd[ci[k + 2]];
    const double t3 = va[k + 3] * xd[ci[k + 3]];
    a0 += t0;
    a1 += t1;
    a2 += t2;
    a3 += t3;
    if constexpr (kSquares) {
      q0 += va[k] * t0;
      q1 += va[k + 1] * t1;
      q2 += va[k + 2] * t2;
      q3 += va[k + 3] * t3;
    }
  }
  double acc = (a0 + a1) + (a2 + a3);
  double sq = (q0 + q1) + (q2 + q3);
  for (; k < end; ++k) {
    const double t = va[k] * xd[ci[k]];
    acc += t;
    if constexpr (kSquares) sq += va[k] * t;
  }
  if constexpr (kSquares) *squares = sq;
  return acc;
}

}  // namespace

void SparseMatrix::Multiply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  assert(x.size() == cols_);
  y.resize(rows_);
  MultiplyInto(kernels::ConstSpan(x), kernels::Span(y));
}

void SparseMatrix::MultiplyInto(kernels::ConstSpan x, kernels::Span y) const {
  assert(x.size == cols_);
  assert(y.size == rows_);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  for (size_t r = 0; r < rows_; ++r) {
    y.data[r] = RowDot<false>(ci, va, x.data, off[r], off[r + 1], nnz);
  }
}

void SparseMatrix::MultiplyMinusInto(kernels::ConstSpan x, kernels::ConstSpan b,
                                     kernels::Span y) const {
  assert(x.size == cols_);
  assert(b.size == rows_ && y.size == rows_);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  for (size_t r = 0; r < rows_; ++r) {
    y.data[r] =
        RowDot<false>(ci, va, x.data, off[r], off[r + 1], nnz) - b.data[r];
  }
}

void SparseMatrix::MultiplyMinusInto(kernels::ConstSpan x, kernels::ConstSpan b,
                                     kernels::Span y,
                                     kernels::Span squares) const {
  assert(x.size == cols_);
  assert(b.size == rows_ && y.size == rows_ && squares.size == rows_);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  for (size_t r = 0; r < rows_; ++r) {
    y.data[r] = RowDot<true>(ci, va, x.data, off[r], off[r + 1], nnz,
                             squares.data + r) -
                b.data[r];
  }
}

void SparseMatrix::TransposeMultiply(const std::vector<double>& x,
                                     std::vector<double>& y) const {
  assert(x.size() == rows_);
  y.resize(cols_);
  TransposeMultiplyInto(kernels::ConstSpan(x), kernels::Span(y));
}

void SparseMatrix::TransposeMultiplyInto(kernels::ConstSpan x,
                                         kernels::Span y) const {
  assert(x.size == rows_);
  assert(y.size == cols_);
  std::fill(y.data, y.data + y.size, 0.0);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  double* const yd = y.data;
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = x.data[r];
    if (xr == 0.0) continue;
    size_t k = off[r];
    const size_t end = off[r + 1];
    for (; k + 4 <= end; k += 4) {
      if (k + kPrefetchDistance < nnz) {
        PrefetchWrite(yd + ci[k + kPrefetchDistance]);
      }
      yd[ci[k]] += va[k] * xr;
      yd[ci[k + 1]] += va[k + 1] * xr;
      yd[ci[k + 2]] += va[k + 2] * xr;
      yd[ci[k + 3]] += va[k + 3] * xr;
    }
    for (; k < end; ++k) yd[ci[k]] += va[k] * xr;
  }
}

double SparseMatrix::At(size_t row, size_t col) const {
  assert(row < rows_ && col < cols_);
  for (size_t k = row_offsets_[row]; k < row_offsets_[row + 1]; ++k) {
    if (col_indices_[k] == col) return values_[k];
  }
  return 0.0;
}

std::vector<std::vector<double>> SparseMatrix::ToDense() const {
  std::vector<std::vector<double>> dense(rows_,
                                         std::vector<double>(cols_, 0.0));
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      dense[r][col_indices_[k]] = values_[k];
    }
  }
  return dense;
}

Result<SparseMatrix> SparseMatrix::Submatrix(
    const std::vector<uint32_t>& row_ids,
    const std::vector<uint32_t>& col_ids) const {
  // Direct CSR construction: the source rows already carry unique column
  // indices, so the slice needs no triplet staging, no dedupe pass, and
  // no global sort — only a per-row ordering fix when the requested
  // column permutation is non-monotonic.
  std::vector<int64_t> col_map(cols_, -1);
  for (size_t j = 0; j < col_ids.size(); ++j) {
    if (col_ids[j] >= cols_) {
      return Status::InvalidArgument("submatrix column out of bounds");
    }
    col_map[col_ids[j]] = static_cast<int64_t>(j);
  }
  for (const uint32_t r : row_ids) {
    if (r >= rows_) {
      return Status::InvalidArgument("submatrix row out of bounds");
    }
  }

  SparseMatrix m;
  m.rows_ = row_ids.size();
  m.cols_ = col_ids.size();
  m.row_offsets_.assign(row_ids.size() + 1, 0);

  size_t nnz = 0;
  for (size_t i = 0; i < row_ids.size(); ++i) {
    const uint32_t r = row_ids[i];
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      if (col_map[col_indices_[k]] >= 0) ++nnz;
    }
    m.row_offsets_[i + 1] = nnz;
  }

  m.col_indices_.resize(nnz);
  m.values_.resize(nnz);
  for (size_t i = 0; i < row_ids.size(); ++i) {
    const uint32_t r = row_ids[i];
    const size_t begin = m.row_offsets_[i];
    size_t out = begin;
    bool sorted = true;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const int64_t c = col_map[col_indices_[k]];
      if (c < 0) continue;
      if (out > begin && m.col_indices_[out - 1] > static_cast<uint32_t>(c)) {
        sorted = false;
      }
      m.col_indices_[out] = static_cast<uint32_t>(c);
      m.values_[out] = values_[k];
      ++out;
    }
    if (!sorted) {
      // Rare (the permutation reordered this row): rows are short, so an
      // insertion sort over the paired arrays beats staging pair objects.
      for (size_t a = begin + 1; a < out; ++a) {
        const uint32_t ca = m.col_indices_[a];
        const double va = m.values_[a];
        size_t b = a;
        while (b > begin && m.col_indices_[b - 1] > ca) {
          m.col_indices_[b] = m.col_indices_[b - 1];
          m.values_[b] = m.values_[b - 1];
          --b;
        }
        m.col_indices_[b] = ca;
        m.values_[b] = va;
      }
    }
  }
  return m;
}

}  // namespace pme::linalg
