#include "maxent/problem.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace pme::maxent {
namespace {

using constraints::LinearConstraint;

/// Column of full-space variable `var` under the run map, or -1 when no
/// run places it.
int64_t ColumnOf(const std::vector<uint32_t>& run_first_var,
                 const std::vector<uint32_t>& run_first_col, size_t num_cols,
                 uint32_t var) {
  auto it = std::upper_bound(run_first_var.begin(), run_first_var.end(), var);
  if (it == run_first_var.begin()) return -1;
  const size_t i = static_cast<size_t>(it - run_first_var.begin()) - 1;
  const size_t end_col =
      i + 1 < run_first_col.size() ? run_first_col[i + 1] : num_cols;
  const size_t col = size_t{run_first_col[i]} + (var - run_first_var[i]);
  return col < end_col ? static_cast<int64_t>(col) : -1;
}

/// One side (equality or inequality) of AssembleProblem.
Status AssembleRows(const std::vector<const LinearConstraint*>& rows,
                    const std::vector<uint32_t>& run_first_var,
                    const std::vector<uint32_t>& run_first_col,
                    size_t num_cols, linalg::SparseMatrix* matrix,
                    std::vector<double>* rhs) {
  std::vector<size_t> offsets;
  offsets.reserve(rows.size() + 1);
  offsets.push_back(0);
  std::vector<uint32_t> cols;
  std::vector<double> values;
  std::vector<std::pair<uint32_t, double>> entries;
  rhs->reserve(rows.size());
  for (const LinearConstraint* c : rows) {
    if (c->vars.size() != c->coefs.size()) {
      return Status::InvalidArgument("constraint '" + c->label +
                                     "': vars and coefs differ in size");
    }
    const bool negate = c->rel == knowledge::Relation::kGe;
    entries.clear();
    for (size_t i = 0; i < c->vars.size(); ++i) {
      // A zero coefficient adds nothing to any sum; skipping it first
      // also lets a block's rows carry zero entries outside the block.
      if (c->coefs[i] == 0.0) continue;
      const int64_t col =
          ColumnOf(run_first_var, run_first_col, num_cols, c->vars[i]);
      if (col < 0) {
        return Status::InvalidArgument("constraint '" + c->label +
                                       "' reaches outside its columns");
      }
      entries.emplace_back(static_cast<uint32_t>(col),
                           negate ? -c->coefs[i] : c->coefs[i]);
    }
    const auto by_col = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    if (!std::is_sorted(entries.begin(), entries.end(), by_col)) {
      std::stable_sort(entries.begin(), entries.end(), by_col);
    }
    for (size_t i = 0; i < entries.size();) {
      const uint32_t col = entries[i].first;
      double v = 0.0;
      for (; i < entries.size() && entries[i].first == col; ++i) {
        v += entries[i].second;
      }
      if (v != 0.0) {
        cols.push_back(col);
        values.push_back(v);
      }
    }
    offsets.push_back(cols.size());
    rhs->push_back(negate ? -c->rhs : c->rhs);
  }
  PME_ASSIGN_OR_RETURN(
      *matrix,
      linalg::SparseMatrix::FromCsr(rows.size(), num_cols, std::move(offsets),
                                    std::move(cols), std::move(values)));
  return Status::Ok();
}

}  // namespace

Result<MaxEntProblem> AssembleProblem(
    const std::vector<const LinearConstraint*>& eq_rows,
    const std::vector<const LinearConstraint*>& ineq_rows,
    const std::vector<uint32_t>& run_first_var,
    const std::vector<uint32_t>& run_first_col, size_t num_cols) {
  MaxEntProblem p;
  p.num_vars = num_cols;
  PME_RETURN_IF_ERROR(AssembleRows(eq_rows, run_first_var, run_first_col,
                                   num_cols, &p.eq, &p.eq_rhs));
  PME_RETURN_IF_ERROR(AssembleRows(ineq_rows, run_first_var, run_first_col,
                                   num_cols, &p.ineq, &p.ineq_rhs));
  return p;
}

Result<MaxEntProblem> BuildProblem(
    const constraints::ConstraintSystem& system) {
  std::vector<const LinearConstraint*> eq_rows, ineq_rows;
  for (const LinearConstraint& c : system.constraints()) {
    (c.rel == knowledge::Relation::kEq ? eq_rows : ineq_rows).push_back(&c);
  }
  return AssembleProblem(eq_rows, ineq_rows, {0}, {0},
                         system.num_variables());
}

std::vector<double> PresolvedProblem::Restore(
    const std::vector<double>& reduced_p) const {
  std::vector<double> full(var_map.size(), 0.0);
  for (size_t i = 0; i < var_map.size(); ++i) {
    full[i] = var_map[i] >= 0 ? reduced_p[static_cast<size_t>(var_map[i])]
                              : fixed_values[i];
  }
  return full;
}

namespace {

/// One side of the problem under presolve: a copy of its CSR arrays in
/// which row r keeps its live entries in [begin[r], end[r]), with begin
/// the original row offsets. Rows only ever shrink, in place.
struct PresolveSide {
  PresolveSide(const linalg::SparseMatrix& m, const std::vector<double>& b,
               bool is_eq)
      : begin(m.row_offsets()),
        end(m.rows()),
        cols(m.col_indices()),
        values(m.values()),
        rhs(b),
        active(m.rows(), 1),
        is_eq(is_eq) {
    for (size_t r = 0; r < m.rows(); ++r) end[r] = begin[r + 1];
  }

  /// Moves the active rows, their variables renumbered by `var_map`, to
  /// the front of the arrays and adopts them as a matrix over `num_vars`
  /// columns. Fills `row_map` (original row -> reduced row or -1).
  Result<linalg::SparseMatrix> Emit(const std::vector<int64_t>& var_map,
                                    size_t num_vars,
                                    std::vector<int64_t>* row_map,
                                    std::vector<double>* reduced_rhs) {
    row_map->assign(rhs.size(), -1);
    std::vector<size_t> offsets{0};
    size_t out = 0;
    for (size_t r = 0; r < rhs.size(); ++r) {
      if (!active[r]) continue;
      (*row_map)[r] = static_cast<int64_t>(reduced_rhs->size());
      // out <= begin[r]: the writes never pass the entries still unread.
      for (size_t k = begin[r]; k < end[r]; ++k, ++out) {
        cols[out] = static_cast<uint32_t>(var_map[cols[k]]);
        values[out] = values[k];
      }
      offsets.push_back(out);
      reduced_rhs->push_back(rhs[r]);
    }
    cols.resize(out);
    values.resize(out);
    return linalg::SparseMatrix::FromCsr(reduced_rhs->size(), num_vars,
                                         std::move(offsets), std::move(cols),
                                         std::move(values));
  }

  std::vector<size_t> begin;
  std::vector<size_t> end;
  std::vector<uint32_t> cols;
  std::vector<double> values;
  std::vector<double> rhs;
  std::vector<char> active;
  bool is_eq;
};

}  // namespace

Result<PresolvedProblem> Presolve(const MaxEntProblem& problem, double tol) {
  PresolveSide sides[] = {
      PresolveSide(problem.eq, problem.eq_rhs, /*is_eq=*/true),
      PresolveSide(problem.ineq, problem.ineq_rhs, /*is_eq=*/false)};

  std::vector<char> is_fixed(problem.num_vars, 0);
  std::vector<double> fixed_value(problem.num_vars, 0.0);

  auto fix = [&](uint32_t var, double value) {
    is_fixed[var] = 1;
    fixed_value[var] = std::max(value, 0.0);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // Equality rows first, then inequality rows, each in row order.
    for (PresolveSide& side : sides) {
      for (size_t r = 0; r < side.rhs.size(); ++r) {
        if (!side.active[r]) continue;
        // Substitute fixed variables (in entry order) and drop zero
        // coefficients.
        double& rhs = side.rhs[r];
        const size_t first = side.begin[r];
        size_t w = first;
        for (size_t k = first; k < side.end[r]; ++k) {
          const uint32_t var = side.cols[k];
          const double coef = side.values[k];
          if (coef == 0.0) continue;
          if (is_fixed[var]) {
            rhs -= coef * fixed_value[var];
            continue;
          }
          side.cols[w] = var;
          side.values[w] = coef;
          ++w;
        }
        side.end[r] = w;
        const uint32_t* const vars = side.cols.data() + first;
        const double* const coefs = side.values.data() + first;
        const size_t len = w - first;

        if (len == 0) {
          if (side.is_eq ? std::fabs(rhs) > tol : rhs < -tol) {
            return Status::Infeasible(
                "presolve: constraint reduced to an unsatisfiable constant");
          }
          side.active[r] = 0;
          changed = true;
          continue;
        }

        const bool all_pos =
            std::all_of(coefs, coefs + len, [](double c) { return c > 0.0; });
        const bool all_neg =
            std::all_of(coefs, coefs + len, [](double c) { return c < 0.0; });

        if (side.is_eq) {
          if (std::fabs(rhs) <= tol && (all_pos || all_neg)) {
            // Zero forcing: a signed combination of nonnegative variables
            // equal to zero pins every variable to zero.
            for (size_t i = 0; i < len; ++i) fix(vars[i], 0.0);
            side.active[r] = 0;
            changed = true;
          } else if (len == 1) {
            const double value = rhs / coefs[0];
            if (value < -tol) {
              return Status::Infeasible(
                  "presolve: a probability term is forced negative");
            }
            fix(vars[0], value);
            side.active[r] = 0;
            changed = true;
          }
        } else {
          // Inequality  a·p <= rhs  with a > 0 elementwise.
          if (all_pos) {
            if (rhs < -tol) {
              return Status::Infeasible(
                  "presolve: inequality bound below zero over nonnegative "
                  "terms");
            }
            if (rhs <= tol) {
              for (size_t i = 0; i < len; ++i) fix(vars[i], 0.0);
              side.active[r] = 0;
              changed = true;
            }
          }
        }
      }
    }
  }

  // Renumber surviving variables: ascending, so each surviving row's
  // columns stay strictly ascending.
  PresolvedProblem out;
  out.var_map.assign(problem.num_vars, -1);
  out.fixed_values = std::move(fixed_value);
  size_t next = 0;
  for (size_t v = 0; v < problem.num_vars; ++v) {
    if (is_fixed[v]) {
      ++out.num_fixed;
    } else {
      out.var_map[v] = static_cast<int64_t>(next++);
    }
  }
  out.reduced.num_vars = next;
  PME_ASSIGN_OR_RETURN(out.reduced.eq,
                       sides[0].Emit(out.var_map, next, &out.eq_row_map,
                                     &out.reduced.eq_rhs));
  PME_ASSIGN_OR_RETURN(out.reduced.ineq,
                       sides[1].Emit(out.var_map, next, &out.ineq_row_map,
                                     &out.reduced.ineq_rhs));
  return out;
}

}  // namespace pme::maxent
