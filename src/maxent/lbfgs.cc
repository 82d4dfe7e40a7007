#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/math_util.h"
#include "common/vec_math.h"
#include "maxent/solvers_internal.h"

namespace pme::maxent::internal {
namespace {

/// Floor on the Hessian diagonal, as a fraction of its largest entry.
/// A row whose variables all sit near zero (a zero-target statement with
/// presolve off) has D_r many orders of magnitude below the rest; its
/// unfloored D_r⁻¹ blows that direction entry up until every step is
/// rejected.
constexpr double kHessianDiagFloor = 1e-3;

/// Turns the dual Hessian's diagonal D (at the current iterate) into the
/// initial inverse Hessian's diagonal D⁻¹, with every entry — including
/// zero and non-finite ones — raised to kHessianDiagFloor · max_r D_r
/// first. With no positive finite entry at all, falls back to identity.
void InvertFlooredDiag(const std::vector<double>& diag,
                       std::vector<double>* inv_diag) {
  double max_d = 0.0;
  for (const double d : diag) {
    if (std::isfinite(d) && d > max_d) max_d = d;
  }
  const size_t m = diag.size();
  inv_diag->resize(m);
  if (max_d <= 0.0) {
    std::fill(inv_diag->begin(), inv_diag->end(), 1.0);
    return;
  }
  const double floor = kHessianDiagFloor * max_d;
  for (size_t r = 0; r < m; ++r) {
    const double d = diag[r];
    (*inv_diag)[r] = 1.0 / (std::isfinite(d) && d > floor ? d : floor);
  }
}

/// Backtracking line search along `direction` (φ′(0) = `dir_dot_grad`
/// < 0). A probe is accepted on the Armijo test, except where the value
/// change is below rounding: there the decision falls to the directional
/// derivative, with Hager–Zhang's approximate Wolfe test
/// 0.9·φ′(0) ≤ φ′(α) ≤ −0.8·φ′(0). A step too short to change λ at all
/// is never accepted. On success updates (lambda, value, grad) and
/// returns true. Every probe evaluates through the shared workspace, so
/// the line search allocates nothing.
bool Backtrack(const DualFunction& dual, const std::vector<double>& direction,
               double dir_dot_grad, double initial_step, size_t max_steps,
               std::vector<double>* lambda, double* value,
               std::vector<double>* grad, std::vector<double>* scratch_lambda,
               std::vector<double>* scratch_grad, DualWorkspace* ws) {
  const double c1 = 1e-4;
  const double rounding = 1e-14 * (1.0 + std::fabs(*value));
  double step = initial_step;
  for (size_t ls = 0; ls < max_steps; ++ls) {
    kernels::ScaledAdd(*lambda, step, direction, *scratch_lambda);
    if (*scratch_lambda == *lambda) return false;  // shorter steps too
    const double trial_value =
        dual.EvaluateInto(*scratch_lambda, scratch_grad, ws);
    bool accept = false;
    if (std::isfinite(trial_value)) {
      if (std::fabs(trial_value - *value) <= rounding) {
        const double slope = Dot(*scratch_grad, direction);
        accept = 0.9 * dir_dot_grad <= slope && slope <= -0.8 * dir_dot_grad;
      } else {
        accept = trial_value <= *value + c1 * step * dir_dot_grad;
      }
    }
    if (accept) {
      lambda->swap(*scratch_lambda);
      grad->swap(*scratch_grad);
      *value = trial_value;
      return true;
    }
    step *= 0.5;
  }
  return false;
}

}  // namespace

Result<DualOutcome> MinimizeLbfgs(const DualFunction& dual,
                                  std::vector<double> lambda,
                                  const SolverOptions& options) {
  const size_t m = dual.dim();
  DualOutcome out;
  out.lambda = std::move(lambda);
  if (m == 0) {
    out.converged = true;
    return out;
  }
  if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
    // Budget was gone before the first evaluation: the start point is the
    // best (and only) iterate.
    out.stop = stop;
    return out;
  }

  // Failpoints, counted once per solve so a fault can be aimed at the
  // Nth component of a decomposed run: `lbfgs_nan` poisons the gradient
  // after the first evaluation (a numerical blowup), `lbfgs_spurious`
  // makes the solve give up immediately with a not-converged iterate.
  const bool inject_nan = PME_FAILPOINT("lbfgs_nan");
  const bool inject_spurious = PME_FAILPOINT("lbfgs_spurious");

  // The workspace also yields the Hessian diagonal at each evaluated
  // point. Backtrack returns right after its accepting evaluation, so
  // ws.hessian_diag always belongs to the current iterate.
  DualWorkspace ws;
  ws.want_hessian_diag = true;
  std::vector<double> grad(m, 0.0);
  double value = dual.EvaluateInto(out.lambda, &grad, &ws);
  if (inject_nan) {
    value = std::numeric_limits<double>::quiet_NaN();
    grad.assign(m, std::numeric_limits<double>::quiet_NaN());
  }

  // Correction-pair history for the two-loop recursion.
  std::deque<std::vector<double>> s_hist, y_hist;
  std::deque<double> rho_hist;

  std::vector<double> direction(m), scratch_lambda(m), scratch_grad(m);
  std::vector<double> prev_lambda(m), prev_grad(m), inv_diag(m);
  std::vector<double> alpha(options.lbfgs_history, 0.0);
  // Retired history buffers, recycled so steady state allocates nothing.
  std::vector<double> s_spare, y_spare;
  StallDetector stall(options.ftol, options.max_stall_iterations);
  bool restarted_after_stall = false;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    out.grad_inf = InfNorm(grad);
    if (out.grad_inf <= options.tolerance) {
      out.converged = true;
      out.iterations = iter;
      out.dual_value = value;
      return out;
    }
    if (StatusCode stop = CheckStop(options); stop != StatusCode::kOk) {
      out.stop = stop;
      out.iterations = iter;
      out.dual_value = value;
      return out;
    }
    if (inject_spurious) {
      // Injected non-convergence: stop here with the current iterate.
      out.iterations = iter;
      out.dual_value = value;
      return out;
    }

    // Two-loop recursion: direction = -H_k * grad, from the initial
    // inverse Hessian H_0 = gamma * D⁻¹ (Gilbert–Lemaréchal's diagonal
    // scaling): D is the floored diagonal of ∇²D = A·diag(p)·Aᵀ at this
    // iterate, gamma = sᵀy / yᵀD⁻¹y from the newest pair, and gamma = 1
    // with no history, so the first step is a diagonal Newton step.
    InvertFlooredDiag(ws.hessian_diag, &inv_diag);
    direction = grad;
    for (size_t i = s_hist.size(); i-- > 0;) {
      alpha[i] = rho_hist[i] * Dot(s_hist[i], direction);
      Axpy(-alpha[i], y_hist[i], direction);
    }
    double gamma = 1.0;
    if (!s_hist.empty()) {
      const auto& y = y_hist.back();
      double y_dinv_y = 0.0;
      for (size_t j = 0; j < m; ++j) y_dinv_y += y[j] * y[j] * inv_diag[j];
      gamma = Dot(s_hist.back(), y) / y_dinv_y;
    }
    for (size_t j = 0; j < m; ++j) direction[j] *= gamma * inv_diag[j];
    for (size_t i = 0; i < s_hist.size(); ++i) {
      const double beta = rho_hist[i] * Dot(y_hist[i], direction);
      Axpy(alpha[i] - beta, s_hist[i], direction);
    }
    kernels::Scale(direction, -1.0);

    double dir_dot_grad = Dot(direction, grad);
    if (dir_dot_grad >= 0.0) {
      // Stale curvature produced an ascent direction: restart from the
      // empty-history step -D⁻¹·grad, a descent direction for any D > 0.
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
      dir_dot_grad = 0.0;
      for (size_t j = 0; j < m; ++j) {
        direction[j] = -inv_diag[j] * grad[j];
        dir_dot_grad += direction[j] * grad[j];
      }
    }

    prev_lambda = out.lambda;
    prev_grad = grad;
    const double prev_value = value;

    bool accepted =
        Backtrack(dual, direction, dir_dot_grad, 1.0,
                  options.max_line_search_steps, &out.lambda, &value, &grad,
                  &scratch_lambda, &scratch_grad, &ws);
    if (!accepted && !s_hist.empty()) {
      // The quasi-Newton direction may be badly scaled (near-degenerate
      // curvature); drop the memory and retry along the raw gradient with
      // a conservatively normalized first step.
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
      const double gnorm = TwoNorm(grad);
      for (size_t j = 0; j < m; ++j) direction[j] = -grad[j];
      accepted = Backtrack(dual, direction, -gnorm * gnorm,
                           1.0 / std::max(1.0, gnorm),
                           options.max_line_search_steps, &out.lambda, &value,
                           &grad, &scratch_lambda, &scratch_grad, &ws);
    }
    if (!accepted) {
      // Even steepest descent cannot improve: the iterate is at numerical
      // precision for this problem.
      out.iterations = iter + 1;
      out.dual_value = value;
      out.grad_inf = InfNorm(grad);
      out.converged = out.grad_inf <= options.tolerance;
      return out;
    }

    // Accepted, but did the dual value actually move? A run of
    // rounding-noise steps means this curvature memory is exhausted.
    // One restart from empty history (a diagonal Newton step) sometimes
    // escapes the plateau; a second stall run means numerical precision
    // is reached.
    if (stall.Update(prev_value, value)) {
      if (!restarted_after_stall && !s_hist.empty()) {
        restarted_after_stall = true;
        stall.Reset();
        s_hist.clear();
        y_hist.clear();
        rho_hist.clear();
        // Skip the history update below: pushing the stalled step's noise
        // (s, y) pair would undo the restart before it begins.
        out.iterations = iter + 1;
        continue;
      }
      out.iterations = iter + 1;
      out.dual_value = value;
      out.grad_inf = InfNorm(grad);
      out.converged = out.grad_inf <= options.tolerance;
      return out;
    }

    // Update history with the accepted move, recycling retired buffers.
    std::vector<double> s = std::move(s_spare);
    std::vector<double> y = std::move(y_spare);
    s.resize(m);
    y.resize(m);
    for (size_t j = 0; j < m; ++j) {
      s[j] = out.lambda[j] - prev_lambda[j];
      y[j] = grad[j] - prev_grad[j];
    }
    const double sy = Dot(s, y);
    if (sy > 1e-12 * TwoNorm(s) * TwoNorm(y)) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(y));
      rho_hist.push_back(1.0 / sy);
      if (s_hist.size() > options.lbfgs_history) {
        s_spare = std::move(s_hist.front());
        y_spare = std::move(y_hist.front());
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    } else {
      s_spare = std::move(s);
      y_spare = std::move(y);
    }
    out.iterations = iter + 1;
  }

  out.dual_value = value;
  out.grad_inf = InfNorm(grad);
  out.converged = out.grad_inf <= options.tolerance;
  return out;
}

}  // namespace pme::maxent::internal
