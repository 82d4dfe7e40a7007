// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_POSTERIOR_H_
#define PME_CORE_POSTERIOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "constraints/term_index.h"

namespace pme::core {

/// The adversary's posterior P*(SA | QI): the end product of
/// Privacy-MaxEnt and the input to every privacy metric (Section 3.1:
/// P(S|Q) = Σ_B P(Q,S,B) / P(Q)).
///
/// Copies share one immutable dense table. A table may also be an
/// *overlay*: a dense base with a few rows replaced (WithRows) — how a
/// request that moved only knowledge-coupled buckets off the prior
/// answers without copying the prior's num_qi × num_sa rows. Reads go
/// through RowData / Conditional either way; an overlaid row costs a
/// binary search over the replaced q ids.
class PosteriorTable {
 public:
  /// Derives P*(s | q) from a MaxEnt joint solution `p` over `index`.
  static PosteriorTable FromSolution(const anonymize::BucketizedTable& table,
                                     const constraints::TermIndex& index,
                                     const std::vector<double>& p);

  /// The ground-truth conditional P(s | q) of the original data
  /// (evaluation only — an adversary cannot compute this).
  static PosteriorTable GroundTruth(const anonymize::BucketizedTable& table);

  uint32_t num_qi() const { return num_qi_; }
  uint32_t num_sa() const { return num_sa_; }

  /// P*(s | q).
  double Conditional(uint32_t q, uint32_t s) const { return RowData(q)[s]; }

  /// The conditional distribution over all SA instances for one q.
  std::vector<double> Row(uint32_t q) const;

  /// Borrowed view of Row(q) (num_sa() doubles) — the hot evaluation
  /// loops (accuracy, metrics) read every row and must not allocate one
  /// copy per q.
  const double* RowData(uint32_t q) const {
    if (!overlay_qs_.empty()) {
      if (const double* row = OverlayRow(q)) return row;
    }
    return dense_->rows.data() + static_cast<size_t>(q) * num_sa_;
  }

  /// The q-marginal P(q) used for weighting.
  double ProbQ(uint32_t q) const { return dense_->prob_q[q]; }

  /// Writes row q as FromSolution would derive it from the full joint
  /// solution `p` into `row` (num_sa() doubles): `vars` are exactly q's
  /// variable ids in ascending order (the artifact's per-q index).
  /// Identical arithmetic to FromSolution for that row — accumulate
  /// contributions in var order, then divide by this table's P(q) — so
  /// recomputing only the knowledge-touched rows reproduces a full
  /// rebuild bit for bit.
  void ComputeRow(uint32_t q, const uint32_t* vars, size_t n,
                  const constraints::TermIndex& index,
                  const std::vector<double>& p, double* row) const;

  /// This table with rows `qs` (ascending, distinct) replaced by `rows`
  /// (qs.size() × num_sa(), row-major). Shares this table's storage:
  /// O(qs) to build. This table must not itself be an overlay.
  PosteriorTable WithRows(std::vector<uint32_t> qs,
                          std::vector<double> rows) const;

  /// Ids of the replaced rows, ascending (empty for a dense table).
  const std::vector<uint32_t>& overlay_qs() const { return overlay_qs_; }

 private:
  struct Dense {
    std::vector<double> rows;    // row-major num_qi x num_sa
    std::vector<double> prob_q;  // P(q)
  };

  const double* OverlayRow(uint32_t q) const;

  uint32_t num_qi_ = 0;
  uint32_t num_sa_ = 0;
  std::shared_ptr<const Dense> dense_;
  std::vector<uint32_t> overlay_qs_;
  std::vector<double> overlay_rows_;
};

/// The paper's evaluation measure (Section 7.1): the weighted
/// Kullback–Leibler distance
///
///   EA = Σ_q P(q) Σ_s P(s|q) · ln( P(s|q) / P*(s|q) ),
///
/// between the ground-truth conditionals and the MaxEnt estimate. Smaller
/// means the adversary's estimate is closer to the truth — *less* privacy.
/// Natural log (nats); the paper's plots use an unspecified base, which
/// only scales the axis.
double EstimationAccuracy(const PosteriorTable& truth,
                          const PosteriorTable& estimate);

/// Classical posterior-based privacy metrics computed from P*(SA | QI).
struct PrivacyMetrics {
  /// max_{q,s} P*(s | q): the worst-case disclosure risk (the quantity
  /// bounded by L-diversity-style metrics).
  double max_disclosure = 0.0;
  /// Σ_q P(q) max_s P*(s | q): expected confidence of the adversary's
  /// best guess.
  double expected_best_guess = 0.0;
  /// min_q exp(H(P*(· | q))): the smallest effective number of SA
  /// candidates any individual retains (entropy ℓ-diversity of the
  /// posterior).
  double min_effective_candidates = 0.0;
};

PrivacyMetrics ComputePrivacyMetrics(const PosteriorTable& posterior);

/// One q's slice of the two evaluations above, cached so a request that
/// perturbs only a few posterior rows (the artifact-serving path: only
/// knowledge-coupled buckets move off the prior) re-derives just those
/// slices and re-aggregates — O(touched rows + num_qi) instead of a
/// log/exp pass over every cell.
struct QEvaluation {
  double kl = 0.0;  ///< KL(truth_q ‖ estimate_q); 0 where P(q)=0
  double best_guess = 0.0;            ///< max_s P*(s | q)
  double effective_candidates = 0.0;  ///< exp(H(P*(· | q)))
};
using PerQEvaluation = std::vector<QEvaluation>;

/// q's slice for estimate row `estimate_row` (num_sa doubles), with
/// exactly the per-row arithmetic of EstimationAccuracy /
/// ComputePrivacyMetrics.
QEvaluation EvaluateQ(const PosteriorTable& truth, uint32_t q,
                      const double* estimate_row);

/// Full per-q evaluation (every row).
PerQEvaluation EvaluatePerQ(const PosteriorTable& truth,
                            const PosteriorTable& estimate);

/// Accuracy and metrics of `estimate` from per-q slices: `base` for the
/// rows `estimate` shares with its dense base, `overlaid` (aligned with
/// estimate.overlay_qs()) for its replaced rows — read in q order, with
/// no merged copy. Iteration order and floating-point operation order
/// match the full EstimationAccuracy / ComputePrivacyMetrics loops, so
/// this and the direct computation agree bit for bit.
struct EvaluationSummary {
  double estimation_accuracy = 0.0;
  PrivacyMetrics metrics;
};
EvaluationSummary SummarizePerQ(const PosteriorTable& truth,
                                const PosteriorTable& estimate,
                                const PerQEvaluation& base,
                                const PerQEvaluation& overlaid);

}  // namespace pme::core

#endif  // PME_CORE_POSTERIOR_H_
