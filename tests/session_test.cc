// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Artifact/session split: the TableArtifact + AnalysisSession pair must
// be a drop-in replacement for the legacy one-shot core::Analyze — same
// posteriors to 1e-10 across every solver kind and thread count — while
// supporting what Analyze never could: one immutable artifact shared by
// many concurrent sessions with different knowledge bases, a shared
// solution cache, and a shared worker pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "constraints/bk_compiler.h"
#include "constraints/component_analysis.h"
#include "constraints/system.h"
#include "core/analysis_session.h"
#include "core/experiment.h"
#include "core/table_artifact.h"
#include "knowledge/miner.h"
#include "maxent/solution_cache.h"

namespace pme::core {
namespace {

PipelineOptions SmallPipeline() {
  PipelineOptions options;
  options.data.num_records = 400;
  options.data.seed = 20080612;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;
  options.miner.max_attrs = 2;
  return options;
}

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new ExperimentPipeline(
        BuildPipeline(SmallPipeline()).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static knowledge::KnowledgeBase RuleKb(size_t positive, size_t negative) {
    knowledge::KnowledgeBase kb;
    kb.AddRules(knowledge::TopK(pipeline_->rules, positive, negative));
    return kb;
  }

  static std::shared_ptr<const TableArtifact> BuildArtifact(
      size_t threads = 1) {
    TableArtifactOptions options;
    options.threads = threads;
    return TableArtifact::BuildBorrowed(pipeline_->bucketization.table,
                                        &pipeline_->bucketization.qi_encoder,
                                        options)
        .ValueOrDie();
  }

  static double MaxPosteriorDiff(const PosteriorTable& a,
                                 const PosteriorTable& b) {
    EXPECT_EQ(a.num_qi(), b.num_qi());
    EXPECT_EQ(a.num_sa(), b.num_sa());
    double worst = 0.0;
    for (uint32_t q = 0; q < a.num_qi(); ++q) {
      for (uint32_t s = 0; s < a.num_sa(); ++s) {
        worst = std::max(worst,
                         std::fabs(a.Conditional(q, s) - b.Conditional(q, s)));
      }
    }
    return worst;
  }

  static ExperimentPipeline* pipeline_;
};

ExperimentPipeline* SessionTest::pipeline_ = nullptr;

// (a) Parity: artifact + session must reproduce the legacy Analyze
// posterior to 1e-10 for every solver kind and thread count.
TEST_F(SessionTest, MatchesLegacyAnalyzeAcrossSolversAndThreads) {
  const knowledge::KnowledgeBase kb = RuleKb(8, 8);
  const auto artifact = BuildArtifact();
  const maxent::SolverKind kinds[] = {
      maxent::SolverKind::kLbfgs,
      maxent::SolverKind::kProjected,
  };
  for (maxent::SolverKind kind : kinds) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string("solver=") + maxent::SolverKindToString(kind) +
                   " threads=" + std::to_string(threads));
      AnalysisOptions options;
      options.solver = kind;
      options.solver_options.threads = threads;
      // Keep the slow first-order projected kind affordable: parity must
      // hold at whatever iterate the budget reaches, converged or not.
      options.solver_options.max_iterations = 300;

      const auto legacy =
          Analyze(pipeline_->bucketization.table, kb, options,
                  &pipeline_->bucketization.qi_encoder)
              .ValueOrDie();
      const AnalysisSession session(artifact, options);
      const auto via_session = session.Run(kb).ValueOrDie();

      EXPECT_LE(MaxPosteriorDiff(legacy.posterior, via_session.posterior),
                1e-10);
      EXPECT_NEAR(legacy.estimation_accuracy,
                  via_session.estimation_accuracy, 1e-10);
      EXPECT_EQ(legacy.num_background_constraints,
                via_session.num_background_constraints);
      EXPECT_EQ(legacy.decomposition.num_components,
                via_session.decomposition.num_components);
    }
  }
}

// The serving configuration — block tasks scheduled on a shared
// ThreadPool instead of a per-solve private pool — must change nothing
// about the result.
TEST_F(SessionTest, SharedPoolMatchesPrivatePool) {
  const knowledge::KnowledgeBase kb = RuleKb(12, 12);
  const auto artifact = BuildArtifact();

  AnalysisOptions options;
  options.solver_options.threads = 4;
  const auto reference =
      AnalysisSession(artifact, options).Run(kb).ValueOrDie();

  ThreadPool pool(4);
  AnalysisOptions pooled = options;
  pooled.solver_options.pool = &pool;
  const auto via_pool =
      AnalysisSession(artifact, pooled).Run(kb).ValueOrDie();

  EXPECT_LE(MaxPosteriorDiff(reference.posterior, via_pool.posterior), 1e-10);
  EXPECT_EQ(reference.solver.components_solved,
            via_pool.solver.components_solved);
  EXPECT_EQ(reference.solver.components_failed,
            via_pool.solver.components_failed);
}

// A request whose every block is an exact cache hit hands no task to the
// shared pool: nothing is left to solve, so no worker is woken.
TEST_F(SessionTest, ExactHitsSubmitNoPoolTasks) {
  const knowledge::KnowledgeBase kb = RuleKb(12, 12);
  const auto artifact = BuildArtifact();
  maxent::SolutionCache cache;
  const metrics::Counter& tasks =
      metrics::Registry::Global().GetCounter("pool.tasks");

  // Each pool is joined before the counter is read, so every task it ran
  // has been counted.
  const auto run = [&]() {
    ThreadPool pool(4);
    AnalysisOptions options;
    options.solver_options.pool = &pool;
    options.solver_options.solution_cache = &cache;
    return AnalysisSession(artifact, options).Run(kb).ValueOrDie();
  };
  const uint64_t before_cold = tasks.Value();
  const auto cold = run();
  const uint64_t before_warm = tasks.Value();
  const auto warm = run();
  const uint64_t after_warm = tasks.Value();

  ASSERT_GT(cold.solver.component_outcomes.size(), 0u);
  EXPECT_EQ(before_warm - before_cold, cold.solver.component_outcomes.size());
  EXPECT_EQ(warm.solver.cache_exact_hits,
            warm.solver.component_outcomes.size());
  EXPECT_EQ(after_warm, before_warm);
  EXPECT_EQ(MaxPosteriorDiff(cold.posterior, warm.posterior), 0.0);
}

// (b) Independence: sessions with different knowledge bases share one
// artifact, one solution cache, and one worker pool, run concurrently,
// and each must keep producing exactly its own single-threaded answer.
// Run under TSan, this is also the data-race check for the whole
// artifact-sharing design.
TEST_F(SessionTest, ConcurrentSessionsOnOneArtifactAreIndependent) {
  const auto artifact = BuildArtifact();
  const std::vector<knowledge::KnowledgeBase> kbs = {
      RuleKb(10, 0), RuleKb(0, 10), RuleKb(6, 6)};

  // Single-threaded references, one per knowledge base.
  std::vector<PosteriorTable> reference;
  for (const auto& kb : kbs) {
    reference.push_back(
        AnalysisSession(artifact).Run(kb).ValueOrDie().posterior);
  }

  ThreadPool pool(4);
  maxent::SolutionCache cache;
  AnalysisOptions options;
  options.solver_options.pool = &pool;
  options.solver_options.solution_cache = &cache;

  std::vector<AnalysisSession> sessions;
  sessions.reserve(kbs.size());
  for (size_t i = 0; i < kbs.size(); ++i) {
    sessions.emplace_back(artifact, options);
  }

  constexpr size_t kRoundsPerWorker = 3;
  std::vector<double> worst(kbs.size() * 2, 0.0);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kbs.size() * 2; ++w) {
    workers.emplace_back([&, w] {
      const size_t which = w % kbs.size();
      double local_worst = 0.0;
      for (size_t round = 0; round < kRoundsPerWorker; ++round) {
        const auto result = sessions[which].Run(kbs[which]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        local_worst = std::max(
            local_worst,
            MaxPosteriorDiff(reference[which], result.value().posterior));
      }
      worst[w] = local_worst;
    });
  }
  for (auto& t : workers) t.join();
  for (size_t w = 0; w < worst.size(); ++w) {
    EXPECT_LE(worst[w], 1e-10) << "worker " << w;
  }
}

// (c) The content hash is a pure function of the published table: the
// thread count of the parallel TermIndex build must not leak into it.
TEST_F(SessionTest, ContentHashByteStableAcrossThreads) {
  const auto serial = BuildArtifact(/*threads=*/1);
  const auto parallel = BuildArtifact(/*threads=*/4);
  EXPECT_EQ(serial->content_hash(), parallel->content_hash());
  EXPECT_EQ(serial->content_hash().ToHex(), parallel->content_hash().ToHex());
  // And the artifact itself is structurally identical.
  EXPECT_EQ(serial->index().num_variables(), parallel->index().num_variables());
  EXPECT_EQ(serial->invariants().size(), parallel->invariants().size());
}

// Distinct invariant options are distinct table-side systems, so the
// namespaces (and thus cache keys) must differ.
TEST_F(SessionTest, ContentHashCoversInvariantOptions) {
  TableArtifactOptions flipped;
  flipped.invariant_options.drop_redundant_row =
      !TableArtifactOptions{}.invariant_options.drop_redundant_row;
  const auto a = BuildArtifact();
  const auto b = TableArtifact::BuildBorrowed(
                     pipeline_->bucketization.table,
                     &pipeline_->bucketization.qi_encoder, flipped)
                     .ValueOrDie();
  EXPECT_NE(a->content_hash(), b->content_hash());
}

// ComponentAnalysis::Extend — the session's one-pass merge of knowledge
// rows into the artifact's invariants-only partition — must agree with a
// from-scratch Build over the concatenated system.
TEST_F(SessionTest, ExtendMatchesBuildOnConcatenatedSystem) {
  const auto artifact = BuildArtifact();
  const knowledge::KnowledgeBase kb = RuleKb(15, 15);
  auto compiled = constraints::CompileKnowledge(
                      kb, artifact->table(), artifact->index(),
                      artifact->qi_encoder())
                      .ValueOrDie();

  const constraints::ComponentAnalysis extended =
      constraints::ComponentAnalysis::Extend(artifact->base_components(),
                                             artifact->index(),
                                             compiled.constraints);

  constraints::ConstraintSystem full(artifact->index().num_variables());
  full.AddAll(artifact->invariants());
  full.AddAll(std::move(compiled.constraints));
  const constraints::ComponentAnalysis rebuilt =
      constraints::ComponentAnalysis::Build(artifact->index(), full);

  ASSERT_EQ(extended.num_components(), rebuilt.num_components());
  EXPECT_EQ(extended.num_coupled(), rebuilt.num_coupled());
  EXPECT_EQ(extended.coupled_components(), rebuilt.coupled_components());
  const size_t num_buckets = artifact->table().num_buckets();
  for (uint32_t b = 0; b < num_buckets; ++b) {
    EXPECT_EQ(extended.ComponentOf(b), rebuilt.ComponentOf(b)) << "bucket "
                                                               << b;
  }
  for (size_t c = 0; c < extended.num_components(); ++c) {
    const auto extended_buckets = extended.Buckets(c);
    const auto rebuilt_buckets = rebuilt.Buckets(c);
    EXPECT_EQ(std::vector<uint32_t>(extended_buckets.begin(),
                                    extended_buckets.end()),
              std::vector<uint32_t>(rebuilt_buckets.begin(),
                                    rebuilt_buckets.end()))
        << "component " << c;
    EXPECT_EQ(extended.components()[c].coupled, rebuilt.components()[c].coupled)
        << "component " << c;
    EXPECT_EQ(extended.components()[c].num_variables,
              rebuilt.components()[c].num_variables)
        << "component " << c;
  }
}

// The legacy wrapper and a session must agree on an empty knowledge base
// too (the pure Theorem-5 closed-form path).
TEST_F(SessionTest, KnowledgeFreeRunMatchesLegacy) {
  const knowledge::KnowledgeBase empty;
  const auto artifact = BuildArtifact();
  const auto legacy = Analyze(pipeline_->bucketization.table, empty, {},
                              &pipeline_->bucketization.qi_encoder)
                          .ValueOrDie();
  const auto via_session =
      AnalysisSession(artifact).Run(empty).ValueOrDie();
  EXPECT_LE(MaxPosteriorDiff(legacy.posterior, via_session.posterior), 1e-10);
  EXPECT_EQ(via_session.decomposition.num_coupled_components, 0u);
}

// The session's incremental evaluation — only the knowledge-touched q
// rows recomputed and overlaid on the artifact's shared prior posterior,
// per-q metric slices re-aggregated through the same overlay — must
// reproduce a from-scratch rebuild of posterior, accuracy, and metrics
// off the same joint solution exactly (the touched rows replay the
// identical arithmetic; untouched rows are untouched by construction).
TEST_F(SessionTest, IncrementalEvaluationMatchesFullRebuild) {
  const auto artifact = BuildArtifact();
  // Sparse knowledge, and knowledge dense enough that one coupled
  // component covers more than 80% of the variables — still a block of
  // the same decomposed path, evaluated incrementally.
  const double num_vars = artifact->index().num_variables();
  double largest_share = 0.0;
  for (const knowledge::KnowledgeBase& kb : {RuleKb(10, 6), RuleKb(16, 16)}) {
    SCOPED_TRACE("statements=" + std::to_string(kb.size()));
    const auto analysis = AnalysisSession(artifact).Run(kb).ValueOrDie();
    for (const size_t vars :
         analysis.decomposition.coupled_component_variables) {
      largest_share = std::max(largest_share, vars / num_vars);
    }

    const PosteriorTable full = PosteriorTable::FromSolution(
        artifact->table(), artifact->index(), analysis.solver.p);
    EXPECT_EQ(MaxPosteriorDiff(full, analysis.posterior), 0.0);
    EXPECT_EQ(EstimationAccuracy(artifact->ground_truth(), full),
              analysis.estimation_accuracy);
    const PrivacyMetrics metrics = ComputePrivacyMetrics(full);
    EXPECT_EQ(metrics.max_disclosure, analysis.metrics.max_disclosure);
    EXPECT_EQ(metrics.expected_best_guess,
              analysis.metrics.expected_best_guess);
    EXPECT_EQ(metrics.min_effective_candidates,
              analysis.metrics.min_effective_candidates);
    // The incremental entropy shortcut must stay within rounding noise of
    // the full -Σ p ln p pass.
    EXPECT_NEAR(analysis.solver.entropy, Entropy(analysis.solver.p), 1e-9);
  }
  // The dense knowledge base really is dominated by one component.
  EXPECT_GT(largest_share, 0.8);
}

}  // namespace
}  // namespace pme::core
