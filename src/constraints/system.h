// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_SYSTEM_H_
#define PME_CONSTRAINTS_SYSTEM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "constraints/constraint.h"

namespace pme::constraints {

/// The assembled collection of ME constraints over one TermIndex variable
/// space: data invariants plus compiled background knowledge. This is the
/// direct input to the MaxEnt solver.
class ConstraintSystem {
 public:
  /// `num_variables` fixes the variable-space width.
  explicit ConstraintSystem(size_t num_variables)
      : num_variables_(num_variables) {}

  void Add(LinearConstraint constraint) {
    constraints_.push_back(std::move(constraint));
  }
  void AddAll(std::vector<LinearConstraint> constraints);

  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }
  size_t num_variables() const { return num_variables_; }
  size_t size() const { return constraints_.size(); }

  /// Worst violation of any constraint at `p` (the empirical counterpart
  /// of the solver's convergence measure).
  double MaxViolation(const std::vector<double>& p) const;

 private:
  size_t num_variables_;
  std::vector<LinearConstraint> constraints_;
};

/// The rows of one solve, held by reference: nothing is copied, so every
/// vector the view points at must outlive it. Rows come in two groups:
///
///  - *bucket rows*, grouped by bucket: the rows of bucket b are
///    bucket_rows[bucket_row_offsets[b] ... bucket_row_offsets[b + 1]) and
///    touch no other bucket (a table's invariants). A decomposed solve
///    reads only the groups of knowledge-coupled buckets; the rest are
///    satisfied exactly by the Theorem-5 closed form and never visited.
///    `bucket_row_signatures`, when set, holds ConstraintRowSignature of
///    every bucket row (aligned with bucket_rows), so a solve does not
///    re-hash them per request.
///  - *free rows*, routed one by one by their support: a request's
///    knowledge rows, or every row of a ConstraintSystem.
///
/// The view's row order is bucket rows by bucket, then free rows in
/// order. A ConstraintSystem converts implicitly (all of its rows free,
/// in order), so callers that hold one pass it where a view is expected.
struct SystemView {
  SystemView(const ConstraintSystem& system)  // NOLINT(runtime/explicit)
      : num_variables(system.num_variables()),
        free_rows(&system.constraints()) {}
  SystemView(size_t num_variables,
             const std::vector<LinearConstraint>* bucket_rows,
             const std::vector<uint32_t>* bucket_row_offsets,
             const std::vector<Hash128>* bucket_row_signatures,
             const std::vector<LinearConstraint>* free_rows)
      : num_variables(num_variables),
        bucket_rows(bucket_rows),
        bucket_row_offsets(bucket_row_offsets),
        bucket_row_signatures(bucket_row_signatures),
        free_rows(free_rows) {}

  /// Rows [first, last) of bucket b within *bucket_rows; empty without
  /// bucket rows.
  std::pair<uint32_t, uint32_t> BucketRowRange(uint32_t b) const {
    if (bucket_row_offsets == nullptr) return {0, 0};
    return {(*bucket_row_offsets)[b], (*bucket_row_offsets)[b + 1]};
  }

  size_t num_variables = 0;
  const std::vector<LinearConstraint>* bucket_rows = nullptr;
  const std::vector<uint32_t>* bucket_row_offsets = nullptr;
  const std::vector<Hash128>* bucket_row_signatures = nullptr;
  const std::vector<LinearConstraint>* free_rows = nullptr;
};

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_SYSTEM_H_
