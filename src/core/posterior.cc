#include "core/posterior.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "common/vec_math.h"

namespace pme::core {

PosteriorTable PosteriorTable::FromSolution(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index, const std::vector<double>& p) {
  PosteriorTable t;
  t.num_qi_ = table.num_qi_values();
  t.num_sa_ = table.num_sa_values();
  auto dense = std::make_shared<Dense>();
  auto& rows = dense->rows;
  rows.assign(static_cast<size_t>(t.num_qi_) * t.num_sa_, 0.0);
  dense->prob_q.resize(t.num_qi_);
  for (uint32_t q = 0; q < t.num_qi_; ++q) dense->prob_q[q] = table.ProbQ(q);

  // P*(q, s) = Σ_b p(q, s, b); normalize by P(q).
  for (uint32_t var = 0; var < index.num_variables(); ++var) {
    const auto& term = index.TermOf(var);
    rows[term.qi * t.num_sa_ + term.sa] += p[var];
  }
  for (uint32_t q = 0; q < t.num_qi_; ++q) {
    const double pq = dense->prob_q[q];
    if (pq <= 0.0) continue;
    for (uint32_t s = 0; s < t.num_sa_; ++s) {
      rows[q * t.num_sa_ + s] /= pq;
    }
  }
  t.dense_ = std::move(dense);
  return t;
}

PosteriorTable PosteriorTable::GroundTruth(
    const anonymize::BucketizedTable& table) {
  PosteriorTable t;
  t.num_qi_ = table.num_qi_values();
  t.num_sa_ = table.num_sa_values();
  auto dense = std::make_shared<Dense>();
  auto& rows = dense->rows;
  rows.assign(static_cast<size_t>(t.num_qi_) * t.num_sa_, 0.0);
  dense->prob_q.assign(t.num_qi_, 0.0);

  std::vector<double> q_counts(t.num_qi_, 0.0);
  for (const auto& r : table.records()) {
    rows[r.qi * t.num_sa_ + r.sa] += 1.0;
    q_counts[r.qi] += 1.0;
  }
  const double n = static_cast<double>(table.num_records());
  for (uint32_t q = 0; q < t.num_qi_; ++q) {
    dense->prob_q[q] = q_counts[q] / n;
    if (q_counts[q] <= 0.0) continue;
    for (uint32_t s = 0; s < t.num_sa_; ++s) {
      rows[q * t.num_sa_ + s] /= q_counts[q];
    }
  }
  t.dense_ = std::move(dense);
  return t;
}

void PosteriorTable::ComputeRow(uint32_t q, const uint32_t* vars, size_t n,
                                const constraints::TermIndex& index,
                                const std::vector<double>& p,
                                double* row) const {
  std::fill(row, row + num_sa_, 0.0);
  for (size_t i = 0; i < n; ++i) {
    row[index.TermOf(vars[i]).sa] += p[vars[i]];
  }
  const double pq = ProbQ(q);
  if (pq <= 0.0) return;
  for (uint32_t s = 0; s < num_sa_; ++s) row[s] /= pq;
}

PosteriorTable PosteriorTable::WithRows(std::vector<uint32_t> qs,
                                        std::vector<double> rows) const {
  PosteriorTable t;
  t.num_qi_ = num_qi_;
  t.num_sa_ = num_sa_;
  t.dense_ = dense_;
  t.overlay_qs_ = std::move(qs);
  t.overlay_rows_ = std::move(rows);
  return t;
}

const double* PosteriorTable::OverlayRow(uint32_t q) const {
  auto it = std::lower_bound(overlay_qs_.begin(), overlay_qs_.end(), q);
  if (it == overlay_qs_.end() || *it != q) return nullptr;
  return overlay_rows_.data() +
         static_cast<size_t>(it - overlay_qs_.begin()) * num_sa_;
}

std::vector<double> PosteriorTable::Row(uint32_t q) const {
  const double* row = RowData(q);
  return std::vector<double>(row, row + num_sa_);
}

double EstimationAccuracy(const PosteriorTable& truth,
                          const PosteriorTable& estimate) {
  double accuracy = 0.0;
  const uint32_t num_sa = truth.num_sa();
  for (uint32_t q = 0; q < truth.num_qi(); ++q) {
    const double pq = truth.ProbQ(q);
    if (pq <= 0.0) continue;
    accuracy +=
        pq * KlDivergence(truth.RowData(q), estimate.RowData(q), num_sa);
  }
  return accuracy;
}

PrivacyMetrics ComputePrivacyMetrics(const PosteriorTable& posterior) {
  PrivacyMetrics metrics;
  metrics.min_effective_candidates = std::numeric_limits<double>::max();
  const uint32_t num_sa = posterior.num_sa();
  for (uint32_t q = 0; q < posterior.num_qi(); ++q) {
    const double* row = posterior.RowData(q);
    const double best = *std::max_element(row, row + num_sa);
    metrics.max_disclosure = std::max(metrics.max_disclosure, best);
    metrics.expected_best_guess += posterior.ProbQ(q) * best;
    metrics.min_effective_candidates =
        std::min(metrics.min_effective_candidates,
                 std::exp(kernels::NegXLogXSum({row, num_sa})));
  }
  return metrics;
}

QEvaluation EvaluateQ(const PosteriorTable& truth, uint32_t q,
                      const double* estimate_row) {
  const uint32_t num_sa = truth.num_sa();
  QEvaluation e;
  e.kl = truth.ProbQ(q) <= 0.0
             ? 0.0
             : KlDivergence(truth.RowData(q), estimate_row, num_sa);
  e.best_guess = *std::max_element(estimate_row, estimate_row + num_sa);
  e.effective_candidates =
      std::exp(kernels::NegXLogXSum({estimate_row, num_sa}));
  return e;
}

PerQEvaluation EvaluatePerQ(const PosteriorTable& truth,
                            const PosteriorTable& estimate) {
  PerQEvaluation eval(truth.num_qi());
  for (uint32_t q = 0; q < truth.num_qi(); ++q) {
    eval[q] = EvaluateQ(truth, q, estimate.RowData(q));
  }
  return eval;
}

EvaluationSummary SummarizePerQ(const PosteriorTable& truth,
                                const PosteriorTable& estimate,
                                const PerQEvaluation& base,
                                const PerQEvaluation& overlaid) {
  EvaluationSummary out;
  PrivacyMetrics& metrics = out.metrics;
  metrics.min_effective_candidates = std::numeric_limits<double>::max();
  const std::vector<uint32_t>& qs = estimate.overlay_qs();
  size_t next = 0;  // cursor into qs / overlaid
  for (uint32_t q = 0; q < estimate.num_qi(); ++q) {
    const QEvaluation* e = &base[q];
    if (next < qs.size() && qs[next] == q) e = &overlaid[next++];
    metrics.max_disclosure = std::max(metrics.max_disclosure, e->best_guess);
    metrics.expected_best_guess += estimate.ProbQ(q) * e->best_guess;
    metrics.min_effective_candidates = std::min(
        metrics.min_effective_candidates, e->effective_candidates);
    const double pq = truth.ProbQ(q);
    if (pq <= 0.0) continue;
    out.estimation_accuracy += pq * e->kl;
  }
  return out;
}

}  // namespace pme::core
