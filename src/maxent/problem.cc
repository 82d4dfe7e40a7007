#include "maxent/problem.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace pme::maxent {

Result<MaxEntProblem> BuildProblem(
    const constraints::ConstraintSystem& system) {
  PME_ASSIGN_OR_RETURN(auto matrices, system.ToMatrices());
  MaxEntProblem p;
  p.num_vars = system.num_variables();
  p.eq = std::move(matrices.eq);
  p.eq_rhs = std::move(matrices.eq_rhs);
  p.ineq = std::move(matrices.ineq);
  p.ineq_rhs = std::move(matrices.ineq_rhs);
  return p;
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

struct WorkRow {
  std::vector<uint32_t> vars;
  std::vector<double> coefs;
  double rhs = 0.0;
  bool is_eq = true;
  bool active = true;
};

std::vector<WorkRow> ExtractRows(const linalg::SparseMatrix& m,
                                   kernels::ConstSpan rhs, bool is_eq) {
  std::vector<WorkRow> rows(m.rows());
  const auto& offsets = m.row_offsets();
  const auto& cols = m.col_indices();
  const auto& values = m.values();
  for (size_t r = 0; r < m.rows(); ++r) {
    WorkRow& row = rows[r];
    row.rhs = rhs[r];
    row.is_eq = is_eq;
    for (size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      row.vars.push_back(cols[k]);
      row.coefs.push_back(values[k]);
    }
  }
  return rows;
}

}  // namespace

Result<PresolvedProblem> Presolve(const MaxEntProblem& problem, double tol) {
  std::vector<WorkRow> rows = ExtractRows(problem.eq, problem.eq_rhs, true);
  {
    auto ineq_rows = ExtractRows(problem.ineq, problem.ineq_rhs, false);
    rows.insert(rows.end(), std::make_move_iterator(ineq_rows.begin()),
                std::make_move_iterator(ineq_rows.end()));
  }

  std::vector<char> is_fixed(problem.num_vars, 0);
  std::vector<double> fixed_value(problem.num_vars, 0.0);

  auto fix = [&](uint32_t var, double value) {
    is_fixed[var] = 1;
    fixed_value[var] = std::max(value, 0.0);
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (WorkRow& row : rows) {
      if (!row.active) continue;
      // Substitute fixed variables and drop zero coefficients.
      size_t w = 0;
      for (size_t i = 0; i < row.vars.size(); ++i) {
        if (row.coefs[i] == 0.0) continue;
        if (is_fixed[row.vars[i]]) {
          row.rhs -= row.coefs[i] * fixed_value[row.vars[i]];
          continue;
        }
        row.vars[w] = row.vars[i];
        row.coefs[w] = row.coefs[i];
        ++w;
      }
      row.vars.resize(w);
      row.coefs.resize(w);

      if (row.vars.empty()) {
        if (row.is_eq ? std::fabs(row.rhs) > tol : row.rhs < -tol) {
          return Status::Infeasible(
              "presolve: constraint reduced to an unsatisfiable constant");
        }
        row.active = false;
        changed = true;
        continue;
      }

      const bool all_pos =
          std::all_of(row.coefs.begin(), row.coefs.end(),
                      [](double c) { return c > 0.0; });
      const bool all_neg =
          std::all_of(row.coefs.begin(), row.coefs.end(),
                      [](double c) { return c < 0.0; });

      if (row.is_eq) {
        if (std::fabs(row.rhs) <= tol && (all_pos || all_neg)) {
          // Zero forcing: a signed combination of nonnegative variables
          // equal to zero pins every variable to zero.
          for (uint32_t v : row.vars) fix(v, 0.0);
          row.active = false;
          changed = true;
        } else if (row.vars.size() == 1) {
          const double value = row.rhs / row.coefs[0];
          if (value < -tol) {
            return Status::Infeasible(
                "presolve: a probability term is forced negative");
          }
          fix(row.vars[0], value);
          row.active = false;
          changed = true;
        }
      } else {
        // Inequality  a·p <= rhs  with a > 0 elementwise.
        if (all_pos) {
          if (row.rhs < -tol) {
            return Status::Infeasible(
                "presolve: inequality bound below zero over nonnegative "
                "terms");
          }
          if (row.rhs <= tol) {
            for (uint32_t v : row.vars) fix(v, 0.0);
            row.active = false;
            changed = true;
          }
        }
      }
    }
  }

  // Renumber surviving variables.
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

  // Rebuild surviving rows. `rows` holds the eq rows first then the
  // ineq rows, each in original order, so the row maps fall out of the
  // same pass that emits the reduced matrices.
  out.eq_row_map.assign(problem.eq.rows(), -1);
  out.ineq_row_map.assign(problem.ineq.rows(), -1);
  linalg::SparseMatrixBuilder eq_builder(next);
  linalg::SparseMatrixBuilder ineq_builder(next);
  for (size_t r = 0; r < rows.size(); ++r) {
    const WorkRow& row = rows[r];
    if (!row.active) continue;
    std::vector<uint32_t> vars(row.vars.size());
    for (size_t i = 0; i < row.vars.size(); ++i) {
      vars[i] = static_cast<uint32_t>(out.var_map[row.vars[i]]);
    }
    if (row.is_eq) {
      out.eq_row_map[r] = static_cast<int64_t>(out.reduced.eq_rhs.size());
      PME_RETURN_IF_ERROR(eq_builder.AddRow(vars, row.coefs));
      out.reduced.eq_rhs.push_back(row.rhs);
    } else {
      out.ineq_row_map[r - problem.eq.rows()] =
          static_cast<int64_t>(out.reduced.ineq_rhs.size());
      PME_RETURN_IF_ERROR(ineq_builder.AddRow(vars, row.coefs));
      out.reduced.ineq_rhs.push_back(row.rhs);
    }
  }
  out.reduced.num_vars = next;
  PME_ASSIGN_OR_RETURN(out.reduced.eq, eq_builder.Build());
  PME_ASSIGN_OR_RETURN(out.reduced.ineq, ineq_builder.Build());
  return out;
}

}  // namespace pme::maxent
