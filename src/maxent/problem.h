// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_PROBLEM_H_
#define PME_MAXENT_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "constraints/system.h"
#include "linalg/sparse_matrix.h"

namespace pme::maxent {

/// The optimization problem of Definition 3.1 in matrix form:
///
///   maximize  H(p) = −Σ_i p_i ln p_i
///   subject to  eq · p = eq_rhs,   ineq · p ≤ ineq_rhs,   p ≥ 0.
///
/// Variables are the materialized probability terms P(q, s, b).
struct MaxEntProblem {
  size_t num_vars = 0;
  linalg::SparseMatrix eq;
  std::vector<double> eq_rhs;
  linalg::SparseMatrix ineq;
  std::vector<double> ineq_rhs;

  bool has_inequalities() const { return ineq.rows() > 0; }
  size_t num_constraints() const { return eq.rows() + ineq.rows(); }
};

/// Assembles constraint rows into a problem over `num_cols` columns, in
/// canonical CSR: equality rows into `eq`, inequality rows into `ineq`,
/// each in the given order. kGe rows are negated into kLe form. A row's
/// entries are mapped to columns and sorted stably, so a column the row
/// repeats is summed in row order; zero coefficients and zero sums are
/// dropped, and an empty row stays. This is how every constraint matrix
/// is made.
///
/// The column map is a list of runs: variables from run_first_var[i] on
/// land on columns from run_first_col[i] on, up to the next run's first
/// column (or `num_cols` for the last run). Both lists ascend. A nonzero
/// entry whose variable no run places, or a row whose vars and coefs
/// differ in length, yields kInvalidArgument.
Result<MaxEntProblem> AssembleProblem(
    const std::vector<const constraints::LinearConstraint*>& eq_rows,
    const std::vector<const constraints::LinearConstraint*>& ineq_rows,
    const std::vector<uint32_t>& run_first_var,
    const std::vector<uint32_t>& run_first_col, size_t num_cols);

/// The whole system in matrix form: AssembleProblem over the identity
/// column map, rows split by relation in system order.
Result<MaxEntProblem> BuildProblem(const constraints::ConstraintSystem& system);

/// Structural presolve. Two reductions run to fixpoint:
///
///  1. Zero forcing: an equality row with all-nonnegative coefficients and
///     zero RHS forces every variable it touches to 0. This is how
///     statements like P(Breast Cancer | male) = 0 are resolved *exactly*
///     (the dual alone would need λ → −∞ to express a hard zero).
///  2. Singleton substitution: an equality row with one remaining variable
///     pins it to rhs/coef; the value is substituted into every other row.
///
/// Detects infeasibility (negative pinned probability, or an emptied row
/// with nonzero RHS). The reduced problem excludes satisfied rows and
/// fixed variables; `Restore` maps a reduced solution back to the full
/// variable space. Presolve works on one copy of the problem's CSR
/// arrays, compacting each row in place; surviving rows and variables
/// keep their order, so the reduced matrices stay canonical.
struct PresolvedProblem {
  MaxEntProblem reduced;
  /// original var -> reduced var id, or -1 when the variable was fixed.
  std::vector<int64_t> var_map;
  /// Value of each fixed variable (0 unless pinned by a singleton row).
  std::vector<double> fixed_values;
  size_t num_fixed = 0;
  /// original eq row -> reduced eq row id, or -1 when presolve resolved
  /// the row (zero forcing / singleton / vacuous). Row order is
  /// preserved, so these maps carry dual multipliers between the
  /// original and reduced row spaces — the warm-start transport for
  /// cached re-analysis.
  std::vector<int64_t> eq_row_map;
  /// original ineq row -> reduced ineq row id, or -1 when resolved.
  std::vector<int64_t> ineq_row_map;

  /// Scatters a reduced-space solution into the full variable space.
  std::vector<double> Restore(const std::vector<double>& reduced_p) const;
};

Result<PresolvedProblem> Presolve(const MaxEntProblem& problem,
                                  double tol = 1e-12);

}  // namespace pme::maxent

#endif  // PME_MAXENT_PROBLEM_H_
