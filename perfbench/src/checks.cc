// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#include "checks.h"

#include <algorithm>
#include <cmath>

#include "constraints/bk_compiler.h"
#include "knowledge/parser.h"

namespace perfbench {

namespace {

pme::Result<pme::knowledge::KnowledgeBase> Parse(
    const Inputs& inputs, const std::vector<std::string>& knowledge) {
  pme::knowledge::KnowledgeBase kb;
  pme::knowledge::ParserContext context;
  context.dataset = inputs.dataset.get();
  PME_RETURN_IF_ERROR(
      pme::knowledge::ParseKnowledge(JoinLines(knowledge), context, &kb));
  return kb;
}

double RowResidual(const pme::constraints::LinearConstraint& row,
                   const std::vector<double>& p) {
  double lhs = 0.0;
  for (size_t i = 0; i < row.vars.size(); ++i) {
    lhs += row.coefs[i] * p[row.vars[i]];
  }
  switch (row.rel) {
    case pme::knowledge::Relation::kEq:
      return std::fabs(lhs - row.rhs);
    case pme::knowledge::Relation::kLe:
      return std::max(0.0, lhs - row.rhs);
    case pme::knowledge::Relation::kGe:
      return std::max(0.0, row.rhs - lhs);
  }
  return 0.0;
}

}  // namespace

Answer AnswerOf(const pme::core::Analysis& analysis) {
  return {analysis.estimation_accuracy, analysis.metrics.max_disclosure,
          analysis.metrics.expected_best_guess,
          analysis.metrics.min_effective_candidates};
}

pme::Result<Answer> AnswerOf(const pme::serve::JsonValue& response) {
  const auto field = [&response](const char* key) -> pme::Result<double> {
    const pme::serve::JsonValue* v = response.Find(key);
    if (v == nullptr || !v->is_number()) {
      return pme::Status::InvalidArgument(std::string("response lacks ") +
                                          key);
    }
    return v->number_value;
  };
  Answer a;
  PME_ASSIGN_OR_RETURN(a.estimation_accuracy, field("estimation_accuracy"));
  PME_ASSIGN_OR_RETURN(a.max_disclosure, field("max_disclosure"));
  PME_ASSIGN_OR_RETURN(a.expected_best_guess, field("expected_best_guess"));
  PME_ASSIGN_OR_RETURN(a.min_effective_candidates,
                       field("min_effective_candidates"));
  return a;
}

double AnswerDistance(const Answer& a, const Answer& b) {
  return std::max({std::fabs(a.estimation_accuracy - b.estimation_accuracy),
                   std::fabs(a.max_disclosure - b.max_disclosure),
                   std::fabs(a.expected_best_guess - b.expected_best_guess),
                   std::fabs(a.min_effective_candidates -
                             b.min_effective_candidates)});
}

pme::Result<pme::core::Analysis> ReferenceAnalysis(
    const Inputs& inputs, const std::vector<std::string>& knowledge) {
  PME_ASSIGN_OR_RETURN(auto kb, Parse(inputs, knowledge));
  return pme::core::Analyze(inputs.bucketization->table, kb, {},
                            &inputs.bucketization->qi_encoder);
}

pme::Result<double> ConstraintResidual(const pme::core::TableArtifact& artifact,
                                       const Inputs& inputs,
                                       const std::vector<std::string>& knowledge,
                                       const std::vector<double>& p) {
  if (p.size() != artifact.index().num_variables()) {
    return pme::Status::InvalidArgument("solution size does not match the "
                                        "artifact's variable space");
  }
  PME_ASSIGN_OR_RETURN(auto kb, Parse(inputs, knowledge));
  PME_ASSIGN_OR_RETURN(
      auto compiled,
      pme::constraints::CompileKnowledge(kb, artifact.table(), artifact.index(),
                                         artifact.qi_encoder()));
  double residual = 0.0;
  for (const auto& row : artifact.invariants()) {
    residual = std::max(residual, RowResidual(row, p));
  }
  for (const auto& row : compiled.constraints) {
    residual = std::max(residual, RowResidual(row, p));
  }
  return residual;
}

}  // namespace perfbench
