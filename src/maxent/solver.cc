#include "maxent/solver.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/math_util.h"
#include "common/timer.h"
#include "maxent/dual.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent {
namespace {

/// IsAcceptable's bound on an unconverged answer's worst violation.
constexpr double kAcceptViolation = 1e-6;

/// Equality rows above inequality rows in one matrix, for the projected
/// (sign-constrained) dual: the two CSRs concatenated.
Result<linalg::SparseMatrix> Stack(const MaxEntProblem& problem) {
  const size_t nnz = problem.eq.nnz() + problem.ineq.nnz();
  std::vector<size_t> offsets{0};
  std::vector<uint32_t> cols;
  std::vector<double> values;
  cols.reserve(nnz);
  values.reserve(nnz);
  for (const linalg::SparseMatrix* m : {&problem.eq, &problem.ineq}) {
    const size_t base = cols.size();
    for (size_t r = 0; r < m->rows(); ++r) {
      offsets.push_back(base + m->row_offsets()[r + 1]);
    }
    cols.insert(cols.end(), m->col_indices().begin(), m->col_indices().end());
    values.insert(values.end(), m->values().begin(), m->values().end());
  }
  return linalg::SparseMatrix::FromCsr(problem.num_constraints(),
                                       problem.num_vars, std::move(offsets),
                                       std::move(cols), std::move(values));
}

/// Worst violation of the *original* problem at full-space solution p.
double ProblemViolation(const MaxEntProblem& problem,
                        const std::vector<double>& p) {
  double worst = 0.0;
  std::vector<double> lhs;
  problem.eq.Multiply(p, lhs);
  for (size_t j = 0; j < lhs.size(); ++j) {
    worst = std::max(worst, std::fabs(lhs[j] - problem.eq_rhs[j]));
  }
  problem.ineq.Multiply(p, lhs);
  for (size_t j = 0; j < lhs.size(); ++j) {
    worst = std::max(worst, std::max(0.0, lhs[j] - problem.ineq_rhs[j]));
  }
  return worst;
}

/// Carries dual multipliers between the original stacked row space
/// (equality rows, then inequality rows) and the presolved problem's
/// reduced one, through the presolve row maps: original to reduced when
/// `to_reduced`, else back. Rows presolve resolved have no reduced
/// counterpart and leave `*to` untouched; `*to` comes pre-sized.
void MapDualRows(const PresolvedProblem& pre, bool to_reduced,
                 const std::vector<double>& from, std::vector<double>* to) {
  const auto carry = [&](size_t orig, size_t reduced) {
    if (to_reduced) {
      (*to)[reduced] = from[orig];
    } else {
      (*to)[orig] = from[reduced];
    }
  };
  const size_t orig_eq = pre.eq_row_map.size();
  const size_t reduced_eq = pre.reduced.eq.rows();
  for (size_t r = 0; r < orig_eq; ++r) {
    if (pre.eq_row_map[r] >= 0) {
      carry(r, static_cast<size_t>(pre.eq_row_map[r]));
    }
  }
  for (size_t r = 0; r < pre.ineq_row_map.size(); ++r) {
    if (pre.ineq_row_map[r] >= 0) {
      carry(orig_eq + r,
            reduced_eq + static_cast<size_t>(pre.ineq_row_map[r]));
    }
  }
}

}  // namespace

const char* CacheModeToString(CacheMode mode) {
  switch (mode) {
    case CacheMode::kOff:
      return "off";
    case CacheMode::kExact:
      return "exact";
    case CacheMode::kWarm:
      return "warm";
  }
  return "unknown";
}

Result<CacheMode> ParseCacheMode(const std::string& name) {
  for (CacheMode mode :
       {CacheMode::kOff, CacheMode::kExact, CacheMode::kWarm}) {
    if (name == CacheModeToString(mode)) return mode;
  }
  return Status::InvalidArgument(
      "cache must be 'off', 'exact' or 'warm', got '" + name + "'");
}

const char* SolverKindToString(SolverKind kind) {
  switch (kind) {
    case SolverKind::kLbfgs:
      return "lbfgs";
    case SolverKind::kProjected:
      return "projected";
  }
  return "unknown";
}

Result<SolverKind> ParseSolverKind(const std::string& name) {
  for (SolverKind kind : {SolverKind::kLbfgs, SolverKind::kProjected}) {
    if (name == SolverKindToString(kind)) return kind;
  }
  return Status::InvalidArgument("unknown solver: " + name);
}

Result<SolverResult> Solve(const MaxEntProblem& problem, SolverKind kind,
                           const SolverOptions& options) {
  Timer timer;
  SolverResult result;
  result.kind = kind;

  // Presolve (or pass-through).
  PresolvedProblem pre;
  if (options.presolve) {
    PME_ASSIGN_OR_RETURN(pre, Presolve(problem));
  } else {
    pre.reduced = problem;
    pre.var_map.resize(problem.num_vars);
    pre.fixed_values.assign(problem.num_vars, 0.0);
    for (size_t v = 0; v < problem.num_vars; ++v) {
      pre.var_map[v] = static_cast<int64_t>(v);
    }
    pre.eq_row_map.resize(problem.eq.rows());
    for (size_t r = 0; r < problem.eq.rows(); ++r) {
      pre.eq_row_map[r] = static_cast<int64_t>(r);
    }
    pre.ineq_row_map.resize(problem.ineq.rows());
    for (size_t r = 0; r < problem.ineq.rows(); ++r) {
      pre.ineq_row_map[r] = static_cast<int64_t>(r);
    }
  }
  result.presolve_fixed = pre.num_fixed;
  const MaxEntProblem& reduced = pre.reduced;

  // The dual's starting point: zeros, or the warm start carried into the
  // reduced row space.
  std::vector<double> lambda(reduced.eq.rows() + reduced.ineq.rows(), 0.0);
  const std::vector<double>* warm = options.warm_start_original;
  if (warm != nullptr &&
      warm->size() == problem.eq.rows() + problem.ineq.rows() &&
      std::all_of(warm->begin(), warm->end(),
                  [](double v) { return std::isfinite(v); })) {
    MapDualRows(pre, /*to_reduced=*/true, *warm, &lambda);
  }

  std::vector<double> reduced_p(reduced.num_vars, 0.0);
  if (reduced.num_vars > 0) {
    internal::DualOutcome outcome;
    if (reduced.has_inequalities()) {
      PME_ASSIGN_OR_RETURN(auto stacked, Stack(reduced));
      std::vector<double> rhs = reduced.eq_rhs;
      rhs.insert(rhs.end(), reduced.ineq_rhs.begin(), reduced.ineq_rhs.end());
      DualFunction dual(&stacked, rhs);
      PME_ASSIGN_OR_RETURN(
          outcome, internal::MinimizeProjected(dual, reduced.eq.rows(),
                                               std::move(lambda), options));
      reduced_p = dual.Primal(outcome.lambda);
    } else {
      DualFunction dual(&reduced.eq, reduced.eq_rhs);
      switch (kind) {
        case SolverKind::kLbfgs: {
          PME_ASSIGN_OR_RETURN(
              outcome,
              internal::MinimizeLbfgs(dual, std::move(lambda), options));
          break;
        }
        case SolverKind::kProjected: {
          // No inequality rows: the box is all of R^m and this is plain
          // Barzilai–Borwein gradient descent — the fallback chain's
          // curvature-free restart rung.
          PME_ASSIGN_OR_RETURN(
              outcome, internal::MinimizeProjected(dual, reduced.eq.rows(),
                                                   std::move(lambda), options));
          break;
        }
      }
      reduced_p = dual.Primal(outcome.lambda);
    }
    result.iterations = outcome.iterations;
    result.converged = outcome.converged;
    result.dual_value = outcome.dual_value;
    result.termination = outcome.stop;
    lambda = std::move(outcome.lambda);
  } else {
    result.converged = true;
    lambda.clear();  // no dual was solved
  }

  // Scatter the reduced dual back onto the original rows (dropped rows
  // at 0): the row-stable warm-start payload the solution cache stores.
  result.dual_lambda_full.assign(problem.eq.rows() + problem.ineq.rows(),
                                 0.0);
  if (!lambda.empty()) {
    MapDualRows(pre, /*to_reduced=*/false, lambda, &result.dual_lambda_full);
  }

  result.p = pre.Restore(reduced_p);
  if (result.termination == StatusCode::kOk) {
    // A NaN/Inf iterate (diverged multipliers, overflowed exp) is a
    // numerical failure even when the minimizer exited cleanly.
    for (double v : result.p) {
      if (!std::isfinite(v)) {
        result.termination = StatusCode::kNumericalError;
        result.converged = false;
        break;
      }
    }
  }
  result.entropy = Entropy(result.p);
  result.max_violation = ProblemViolation(problem, result.p);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

bool IsAcceptable(const SolverResult& result) {
  if (result.termination != StatusCode::kOk) return false;
  if (!std::isfinite(result.max_violation)) return false;
  return result.converged || result.max_violation <= kAcceptViolation;
}

Result<SolverResult> SolveWithFallback(const MaxEntProblem& problem,
                                       SolverKind kind,
                                       const SolverOptions& options,
                                       size_t* attempts) {
  // The ladder: the requested solver, then a projected-gradient restart
  // from its dual point — no curvature memory to poison.
  std::vector<SolverKind> ladder = {kind};
  if (kind != SolverKind::kProjected) ladder.push_back(SolverKind::kProjected);

  std::optional<SolverResult> best;  // finite attempt with least violation
  std::vector<double> warm;
  SolverOptions rung_options = options;
  size_t tried = 0;
  Status hard_error = Status::Ok();
  for (SolverKind rung : ladder) {
    if (tried > 0 && CheckInterrupt(options.deadline, options.cancel) !=
                         StatusCode::kOk) {
      break;  // no budget left to retry with
    }
    ++tried;
    auto attempt = Solve(problem, rung, rung_options);
    if (!attempt.ok()) {
      // Structural failure of this rung; the next rung may still apply.
      hard_error = attempt.status();
      continue;
    }
    SolverResult result = std::move(attempt).value();
    if (IsAcceptable(result)) {
      result.degraded = tried > 1;
      if (attempts != nullptr) *attempts = tried;
      return result;
    }
    const bool finite = result.termination != StatusCode::kNumericalError &&
                        std::isfinite(result.max_violation);
    if (finite &&
        (!best.has_value() || result.max_violation < best->max_violation)) {
      best = result;
    }
    // Restart the next rung from this rung's dual point (Solve ignores
    // a poisoned one).
    warm = std::move(result.dual_lambda_full);
    rung_options.warm_start_original = &warm;
  }
  if (attempts != nullptr) *attempts = tried;
  if (best.has_value()) {
    best->degraded = tried > 1;
    return std::move(*best);
  }
  if (!hard_error.ok()) return hard_error;
  return Status::NotConverged("every fallback rung failed without an iterate");
}

}  // namespace pme::maxent
