#include "core/analysis_session.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "constraints/bk_compiler.h"
#include "constraints/component_analysis.h"
#include "constraints/system.h"
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
  const constraints::ComponentAnalysis components =
      constraints::ComponentAnalysis::Extend(artifact.base_components(),
                                             index, compiled.constraints);

  AnalysisOptions run_options = options;
  // Per-artifact cache namespace, unless the caller already chose one.
  if (run_options.solver_options.cache_namespace == Hash128{}) {
    run_options.solver_options.cache_namespace = artifact.content_hash();
  }

  Analysis analysis;
  analysis.num_invariant_constraints = artifact.invariants().size();
  analysis.num_background_constraints = num_bk;
  analysis.num_vacuous_statements = compiled.num_vacuous;

  // The decomposed solve only ever *uses* invariant rows of
  // knowledge-coupled buckets: rows of uncoupled buckets are satisfied
  // exactly by the Theorem-5 closed form and skipped during block
  // routing. So the per-request system carries just that coupled slice
  // plus the knowledge rows — O(request), not O(table) — which leaves
  // the solution identical (and the per-block cache keys identical: the
  // same rows route to the same blocks).
  constraints::ConstraintSystem system(index.num_variables());
  {
    const auto& invariants = artifact.invariants();
    const auto& row_bucket = artifact.invariant_row_bucket();
    for (size_t i = 0; i < invariants.size(); ++i) {
      const uint32_t bucket = row_bucket[i];
      if (bucket == UINT32_MAX ||
          components.components()[components.ComponentOf(bucket)].coupled) {
        system.Add(invariants[i]);
      }
    }
  }
  system.AddAll(std::move(compiled.constraints));

  analysis.decomposition =
      maxent::AnalyzeDecomposition(index, system, &components);

  {
    trace::TraceSpan solve_span("solve", "session");
    run_options.solver_options.closed_form_prior =
        &artifact.closed_form_prior();
    run_options.solver_options.closed_form_prior_entropy =
        artifact.closed_form_prior_entropy();
    PME_ASSIGN_OR_RETURN(
        analysis.solver,
        maxent::SolveDecomposed(artifact.table(), index, system,
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
  // knowledge-coupled buckets at the precomputed prior, so only the
  // touched q rows of the posterior (and their per-q evaluation slices)
  // can differ from the artifact's cached prior evaluation — recompute
  // exactly those and re-aggregate. RecomputeRow and the aggregations
  // replay a full rebuild's arithmetic, so the result matches
  // PosteriorTable::FromSolution + EstimationAccuracy +
  // ComputePrivacyMetrics bit for bit.
  trace::TraceSpan evaluate_span("evaluate", "session");
  analysis.posterior = artifact.prior_posterior();
  PerQEvaluation eval = artifact.prior_evaluation();
  const auto& bucket_var_begin = artifact.bucket_var_begin();
  const auto& q_offsets = artifact.q_var_offsets();
  const auto& q_vars = artifact.q_vars();
  std::vector<uint8_t> touched(artifact.table().num_qi_values(), 0);
  std::vector<uint32_t> touched_qs;
  for (const auto& comp : components.components()) {
    if (!comp.coupled) continue;
    for (const uint32_t bucket : comp.buckets) {
      for (uint32_t var = bucket_var_begin[bucket];
           var < bucket_var_begin[bucket + 1]; ++var) {
        const uint32_t q = index.TermOf(var).qi;
        if (!touched[q]) {
          touched[q] = 1;
          touched_qs.push_back(q);
        }
      }
    }
  }
  for (const uint32_t q : touched_qs) {
    analysis.posterior.RecomputeRow(q, q_vars.data() + q_offsets[q],
                                    q_offsets[q + 1] - q_offsets[q], index,
                                    analysis.solver.p);
    ReevaluateQ(artifact.ground_truth(), analysis.posterior, q, &eval);
  }
  analysis.estimation_accuracy =
      AccuracyFromPerQ(artifact.ground_truth(), eval);
  analysis.metrics = MetricsFromPerQ(analysis.posterior, eval);
  return analysis;
}

}  // namespace pme::core
