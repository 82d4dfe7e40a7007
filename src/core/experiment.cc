#include "core/experiment.h"

#include <utility>

#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "maxent/problem.h"

namespace pme::core {

Result<ExperimentPipeline> BuildPipeline(const PipelineOptions& options) {
  PME_ASSIGN_OR_RETURN(data::Dataset dataset,
                       data::GenerateAdultLike(options.data));
  PME_ASSIGN_OR_RETURN(auto partition,
                       anonymize::AnatomyPartition(dataset, options.anatomy));
  PME_ASSIGN_OR_RETURN(auto bucketization,
                       anonymize::BucketizeDataset(dataset, partition));
  std::vector<knowledge::AssociationRule> rules;
  if (options.mine_rules) {
    PME_ASSIGN_OR_RETURN(
        rules, knowledge::MineAssociationRules(dataset, options.miner));
  }
  return ExperimentPipeline{std::move(dataset), std::move(bucketization),
                            std::move(rules)};
}

Result<Analysis> AnalyzeWithRules(
    const ExperimentPipeline& pipeline,
    const std::vector<knowledge::AssociationRule>& rules,
    const AnalysisOptions& options) {
  knowledge::KnowledgeBase kb;
  kb.AddRules(rules);
  return Analyze(pipeline.bucketization.table, kb, options,
                 &pipeline.bucketization.qi_encoder);
}

Result<Analysis> AnalyzeUndecomposed(const anonymize::BucketizedTable& table,
                                     const knowledge::KnowledgeBase& kb,
                                     const AnalysisOptions& options,
                                     const data::TupleEncoder* qi_encoder) {
  if (!kb.individuals().empty()) {
    return Status::InvalidArgument(
        "knowledge about individuals requires the pseudonym-expanded "
        "IndividualModel (core/individual_model.h)");
  }
  const constraints::TermIndex index = constraints::TermIndex::Build(table);
  constraints::ConstraintSystem system(index.num_variables());
  system.AddAll(
      constraints::GenerateInvariants(table, index, options.invariant_options));
  PME_ASSIGN_OR_RETURN(
      constraints::CompiledKnowledge compiled,
      constraints::CompileKnowledge(kb, table, index, qi_encoder));

  Analysis analysis;
  analysis.num_invariant_constraints = system.size();
  analysis.num_background_constraints = compiled.constraints.size();
  analysis.num_vacuous_statements = compiled.num_vacuous;
  system.AddAll(std::move(compiled.constraints));

  PME_ASSIGN_OR_RETURN(const maxent::MaxEntProblem problem,
                       maxent::BuildProblem(system));
  PME_ASSIGN_OR_RETURN(
      analysis.solver,
      maxent::Solve(problem, options.solver, options.solver_options));
  analysis.posterior =
      PosteriorTable::FromSolution(table, index, analysis.solver.p);
  analysis.estimation_accuracy = EstimationAccuracy(
      PosteriorTable::GroundTruth(table), analysis.posterior);
  analysis.metrics = ComputePrivacyMetrics(analysis.posterior);
  return analysis;
}

}  // namespace pme::core
