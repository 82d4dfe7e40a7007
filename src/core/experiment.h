// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_EXPERIMENT_H_
#define PME_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "common/status.h"
#include "core/privacy_maxent.h"
#include "data/adult_synth.h"
#include "knowledge/miner.h"

namespace pme::core {

/// End-to-end experiment pipeline shared by the figure benches: synthetic
/// Adult-like data → Anatomy ℓ-diversity bucketization → association-rule
/// mining. Each bench then sweeps its own parameter (K, T, #constraints,
/// #buckets) over this state.
struct ExperimentPipeline {
  data::Dataset dataset;
  anonymize::DatasetBucketization bucketization;
  std::vector<knowledge::AssociationRule> rules;
};

struct PipelineOptions {
  data::AdultSynthOptions data;
  anonymize::AnatomyOptions anatomy;
  knowledge::MinerOptions miner;
  /// Mine rules at all (true) or skip mining (false, e.g. Figure 7 runs
  /// that synthesize knowledge directly).
  bool mine_rules = true;
};

/// Builds the pipeline; every stage is deterministic given the seeds in
/// the options.
Result<ExperimentPipeline> BuildPipeline(const PipelineOptions& options);

/// Runs a Privacy-MaxEnt analysis with the given rule subset as the
/// adversary's knowledge.
Result<Analysis> AnalyzeWithRules(
    const ExperimentPipeline& pipeline,
    const std::vector<knowledge::AssociationRule>& rules,
    const AnalysisOptions& options = {});

/// The undecomposed oracle: one maximum-entropy solve over the whole
/// constraint system — every invariant row of the table plus every
/// compiled knowledge row — with no closed form, no blocks and no
/// solution cache. Section 7.2 times exactly this configuration for the
/// Figure 7 benches, and the parity suites hold the block-decomposed
/// Analyze/AnalysisSession to it (Proposition 1: both give the same
/// distribution). It composes public calls only and is not a production
/// path: `decomposition` is left empty and `options.solver_options`
/// reaches maxent::Solve unchanged. Arguments as for Analyze.
Result<Analysis> AnalyzeUndecomposed(
    const anonymize::BucketizedTable& table,
    const knowledge::KnowledgeBase& kb, const AnalysisOptions& options = {},
    const data::TupleEncoder* qi_encoder = nullptr);

}  // namespace pme::core

#endif  // PME_CORE_EXPERIMENT_H_
