#include "maxent/dual.h"

#include <cassert>

#include "common/vec_math.h"

namespace pme::maxent {

DualFunction::DualFunction(const linalg::SparseMatrix* a, kernels::ConstSpan b)
    : a_(a), b_(b) {
  assert(a != nullptr);
  assert(a->rows() == b.size);
}

double DualFunction::Evaluate(const std::vector<double>& lambda,
                              std::vector<double>* grad,
                              std::vector<double>* p) const {
  DualWorkspace ws;
  if (p != nullptr) ws.p.swap(*p);  // reuse the caller's capacity
  const double value = EvaluateInto(lambda, grad, &ws);
  if (p != nullptr) p->swap(ws.p);
  return value;
}

double DualFunction::EvaluateInto(const std::vector<double>& lambda,
                                  std::vector<double>* grad,
                                  DualWorkspace* ws) const {
  assert(ws != nullptr);
  assert(lambda.size() == dim());
  // p <- Aᵀλ, then one fused exp-sum kernel pass turns the exponents into
  // the primal iterate and its total in place (single buffer, no `t`).
  if (ws->p.size() != num_vars()) ws->p.resize(num_vars());
  a_->TransposeMultiplyInto(kernels::ConstSpan(lambda), kernels::Span(ws->p));
  const double sum_p = kernels::ExpM1SumInPlace(kernels::Span(ws->p));
  const double value = sum_p - kernels::Dot(b_, lambda);
  if (grad != nullptr) {
    if (grad->size() != dim()) grad->resize(dim());
    // Fused CSR pass: ∇D = A p − b (and the Hessian diagonal, when
    // asked for) in a single sweep.
    if (ws->want_hessian_diag) {
      if (ws->hessian_diag.size() != dim()) ws->hessian_diag.resize(dim());
      a_->MultiplyMinusInto(kernels::ConstSpan(ws->p), b_,
                            kernels::Span(*grad),
                            kernels::Span(ws->hessian_diag));
    } else {
      a_->MultiplyMinusInto(kernels::ConstSpan(ws->p), b_,
                            kernels::Span(*grad));
    }
  }
  return value;
}

std::vector<double> DualFunction::Primal(
    const std::vector<double>& lambda) const {
  std::vector<double> p;
  Evaluate(lambda, nullptr, &p);
  return p;
}

}  // namespace pme::maxent
