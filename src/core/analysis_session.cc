#include "core/analysis_session.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "constraints/bk_compiler.h"
#include "constraints/component_analysis.h"
#include "constraints/system.h"
#include "core/posterior.h"
#include "maxent/decomposed.h"

namespace pme::core {

AnalysisSession::AnalysisSession(
    std::shared_ptr<const TableArtifact> artifact, AnalysisOptions options)
    : artifact_(std::move(artifact)), options_(std::move(options)) {}

Result<Analysis> AnalysisSession::Run(const knowledge::KnowledgeBase& kb) const {
  return Run(kb, options_);
}

Result<Analysis> AnalysisSession::Run(const knowledge::KnowledgeBase& kb,
                                      const AnalysisOptions& options) const {
  if (artifact_ == nullptr) {
    return Status::InvalidArgument("AnalysisSession: null artifact");
  }
  if (!kb.individuals().empty()) {
    return Status::InvalidArgument(
        "knowledge about individuals requires the pseudonym-expanded "
        "IndividualModel (core/individual_model.h)");
  }
  const TableArtifact& artifact = *artifact_;
  const constraints::TermIndex& index = artifact.index();

  trace::TraceSpan session_span("session_run", "session");

  std::optional<constraints::CompiledKnowledge> compiled_holder;
  {
    trace::TraceSpan compile_span("compile", "session");
    PME_ASSIGN_OR_RETURN(
        auto compiled_local,
        constraints::CompileKnowledge(kb, artifact.table(), index,
                                      artifact.qi_encoder()));
    compile_span.AddArg("constraints",
                        static_cast<double>(compiled_local.constraints.size()));
    compiled_holder.emplace(std::move(compiled_local));
  }
  auto& compiled = *compiled_holder;
  const size_t num_bk = compiled.constraints.size();

  // One union-find pass over the knowledge rows alone — the artifact's
  // invariants-only partition already absorbed the table side.
  const constraints::ComponentAnalysis components = [&] {
    trace::TraceSpan extend_span("extend", "session");
    return constraints::ComponentAnalysis::Extend(
        artifact.base_components(), index, compiled.constraints);
  }();

  AnalysisOptions run_options = options;
  // Per-artifact cache namespace, unless the caller already chose one.
  if (run_options.solver_options.cache_namespace == Hash128{}) {
    run_options.solver_options.cache_namespace = artifact.content_hash();
  }

  Analysis analysis;
  analysis.num_invariant_constraints = artifact.invariants().size();
  analysis.num_background_constraints = num_bk;
  analysis.num_vacuous_statements = compiled.num_vacuous;

  // The solve reads rows by reference: the artifact's invariant rows
  // grouped by bucket (only knowledge-coupled buckets' groups are ever
  // visited; the rest hold exactly under the closed form) plus this
  // request's knowledge rows. Nothing of the table side is copied.
  const constraints::SystemView rows =
      artifact.InvariantView(&compiled.constraints);
  analysis.decomposition =
      maxent::AnalyzeDecomposition(index, rows, &components);

  {
    trace::TraceSpan solve_span("solve", "session");
    run_options.solver_options.closed_form_prior =
        &artifact.closed_form_prior();
    run_options.solver_options.closed_form_prior_entropy =
        artifact.closed_form_prior_entropy();
    PME_ASSIGN_OR_RETURN(
        analysis.solver,
        maxent::SolveDecomposed(artifact.table(), index, rows,
                                run_options.solver,
                                run_options.solver_options, &components));
    // Per-block solve effort, aligned with the decomposition census's
    // block numbering (component_outcomes are emitted in block-id order).
    for (const auto& outcome : analysis.solver.component_outcomes) {
      analysis.decomposition.coupled_component_iterations.push_back(
          outcome.iterations);
      analysis.decomposition.coupled_component_seconds.push_back(
          outcome.seconds);
    }
    solve_span.AddArg("iterations",
                      static_cast<double>(analysis.solver.iterations));
    solve_span.AddArg("components",
                      static_cast<double>(analysis.decomposition.num_components));
  }

  // Evaluation. The solve leaves every variable outside the
  // knowledge-coupled buckets at the precomputed prior, so only the q
  // rows those buckets hold (and their per-q evaluation slices) can
  // differ from the artifact's prior posterior and prior evaluation.
  // Recompute exactly those; the posterior becomes an overlay of them on
  // the shared prior rows, and the aggregates read the prior slices
  // through the same overlay in q order. ComputeRow, EvaluateQ and
  // SummarizePerQ replay a full rebuild's arithmetic, so the result
  // matches PosteriorTable::FromSolution + EstimationAccuracy +
  // ComputePrivacyMetrics bit for bit.
  trace::TraceSpan evaluate_span("evaluate", "session");
  std::vector<uint32_t> touched_qs;
  for (const uint32_t k : components.coupled_components()) {
    for (const uint32_t bucket : components.Buckets(k)) {
      const auto& qis = index.BucketQiList(bucket);
      touched_qs.insert(touched_qs.end(), qis.begin(), qis.end());
    }
  }
  std::sort(touched_qs.begin(), touched_qs.end());
  touched_qs.erase(std::unique(touched_qs.begin(), touched_qs.end()),
                   touched_qs.end());
  const PosteriorTable& prior = artifact.prior_posterior();
  const auto& q_offsets = artifact.q_var_offsets();
  const auto& q_vars = artifact.q_vars();
  const size_t num_sa = prior.num_sa();
  std::vector<double> touched_rows(touched_qs.size() * num_sa);
  PerQEvaluation touched_eval(touched_qs.size());
  for (size_t i = 0; i < touched_qs.size(); ++i) {
    const uint32_t q = touched_qs[i];
    double* row = touched_rows.data() + i * num_sa;
    prior.ComputeRow(q, q_vars.data() + q_offsets[q],
                     q_offsets[q + 1] - q_offsets[q], index,
                     analysis.solver.p, row);
    touched_eval[i] = EvaluateQ(artifact.ground_truth(), q, row);
  }
  analysis.posterior =
      prior.WithRows(std::move(touched_qs), std::move(touched_rows));
  const EvaluationSummary summary =
      SummarizePerQ(artifact.ground_truth(), analysis.posterior,
                    artifact.prior_evaluation(), touched_eval);
  analysis.estimation_accuracy = summary.estimation_accuracy;
  analysis.metrics = summary.metrics;
  evaluate_span.AddArg("touched_qs",
                       static_cast<double>(touched_eval.size()));
  return analysis;
}

}  // namespace pme::core
