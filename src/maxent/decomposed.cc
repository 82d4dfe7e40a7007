#include "maxent/decomposed.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/math_util.h"
#include "common/metrics.h"
#include "common/vec_math.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "maxent/closed_form.h"
#include "maxent/problem.h"
#include "maxent/solution_cache.h"

namespace pme::maxent {

using constraints::ComponentAnalysis;

DecompositionStats AnalyzeDecomposition(
    const constraints::TermIndex& index, const constraints::SystemView& rows,
    const constraints::ComponentAnalysis* precomputed) {
  DecompositionStats stats;
  stats.total_variables = index.num_variables();
  std::optional<ComponentAnalysis> local;
  if (precomputed == nullptr) local = ComponentAnalysis::Build(index, rows);
  const ComponentAnalysis& analysis = precomputed ? *precomputed : *local;
  stats.num_components = analysis.num_components();
  stats.num_coupled_components = analysis.num_coupled();
  for (const uint32_t k : analysis.coupled_components()) {
    const auto& comp = analysis.components()[k];
    stats.relevant_buckets += comp.num_buckets();
    stats.relevant_variables += comp.num_variables;
    stats.coupled_component_variables.push_back(comp.num_variables);
  }
  stats.irrelevant_buckets = index.num_buckets() - stats.relevant_buckets;
  return stats;
}

namespace {

/// A row that routes to no block: either a row on an uncoupled component
/// (satisfied exactly by the closed form) or one with empty support,
/// which must be vacuously satisfiable.
Status CheckUnroutedRow(const constraints::LinearConstraint& c) {
  const bool empty_support =
      std::all_of(c.coefs.begin(), c.coefs.end(),
                  [](double v) { return v == 0.0; });
  if (!empty_support) return Status::Ok();
  // The bound as BuildProblem states it: kGe rows are negated into kLe.
  const bool violated =
      c.rel == knowledge::Relation::kEq   ? std::fabs(c.rhs) > 1e-12
      : c.rel == knowledge::Relation::kLe ? c.rhs < -1e-12
                                          : -c.rhs < -1e-12;
  if (violated) {
    return Status::Infeasible("constraint '" + c.label +
                              "' has empty support and nonzero bound");
  }
  return Status::Ok();
}

/// The cache key of one block: its content digest plus the solve knobs
/// that change the answer (tolerance, presolve). Two analyses asking for
/// different precision must not serve each other's solutions.
Hash128 MakeExactKey(const Hash128& rows_hash, const SolverOptions& options) {
  Hasher128 h;
  h.Update(std::string_view("pme.cachekey.v2"));
  h.Update(options.cache_namespace);
  h.Update(rows_hash);
  h.Update(options.tolerance);
  h.Update(static_cast<uint64_t>(options.presolve ? 1 : 0));
  return h.Finish();
}

/// The structure (warm-start) key of one block: its variable digest
/// under the caller's cache namespace, so two artifacts sharing one
/// cache keep disjoint warm-start spaces too.
Hash128 MakeVarsKey(const Hash128& vars_hash, const SolverOptions& options) {
  Hasher128 h;
  h.Update(std::string_view("pme.varskey.v1"));
  h.Update(options.cache_namespace);
  h.Update(vars_hash);
  return h.Finish();
}

/// Builds a warm-start vector in the block's original stacked row space
/// from a cached entry: rows are matched by content signature (equality
/// and inequality rows separately — their multipliers live in different
/// sign regimes); unmatched rows — the toggled/edited statements — start
/// at 0. `*matched` receives the number of rows carried over. Returns an
/// empty vector when nothing matched (a zero vector is the cold start;
/// passing it would only pretend to be warm).
std::vector<double> BuildWarmStart(const CachedComponentSolution& cached,
                                   const BlockRows& sel, size_t* matched) {
  std::unordered_map<Hash128, double, Hash128Hasher> eq_lambda;
  std::unordered_map<Hash128, double, Hash128Hasher> ineq_lambda;
  if (cached.lambda_full.size() !=
      cached.eq_row_sigs.size() + cached.ineq_row_sigs.size()) {
    return {};
  }
  for (size_t j = 0; j < cached.eq_row_sigs.size(); ++j) {
    eq_lambda.emplace(cached.eq_row_sigs[j], cached.lambda_full[j]);
  }
  for (size_t j = 0; j < cached.ineq_row_sigs.size(); ++j) {
    ineq_lambda.emplace(cached.ineq_row_sigs[j],
                        cached.lambda_full[cached.eq_row_sigs.size() + j]);
  }
  std::vector<double> warm(sel.eq_rows.size() + sel.ineq_rows.size(), 0.0);
  *matched = 0;
  for (size_t j = 0; j < sel.eq_row_sigs.size(); ++j) {
    auto it = eq_lambda.find(sel.eq_row_sigs[j]);
    if (it != eq_lambda.end()) {
      warm[j] = it->second;
      ++*matched;
    }
  }
  for (size_t j = 0; j < sel.ineq_row_sigs.size(); ++j) {
    auto it = ineq_lambda.find(sel.ineq_row_sigs[j]);
    if (it != ineq_lambda.end()) {
      warm[sel.eq_rows.size() + j] = it->second;
      ++*matched;
    }
  }
  if (*matched == 0) return {};
  return warm;
}

/// Process-wide solve.* metrics, mirroring the per-run SolverResult
/// census so the `stats` verb can report fallback-ladder outcomes
/// without threading result structs through the serve layer.
struct SolveMetrics {
  metrics::Counter* runs;
  metrics::Counter* components_solved;
  metrics::Counter* components_degraded;
  metrics::Counter* components_failed;
  metrics::Histogram* block_seconds;
  metrics::Histogram* block_iterations;
};

SolveMetrics& GetSolveMetrics() {
  static SolveMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    SolveMetrics r;
    r.runs = &registry.GetCounter("solve.runs");
    r.components_solved = &registry.GetCounter("solve.components_solved");
    r.components_degraded =
        &registry.GetCounter("solve.components_degraded");
    r.components_failed = &registry.GetCounter("solve.components_failed");
    r.block_seconds = &registry.GetHistogram("solve.block_seconds");
    // Iteration counts: buckets [0,1), [1,2), [2,4) ... cover the
    // fixed-point loop's realistic range up to ~2^30.
    metrics::HistogramOptions iter_options;
    iter_options.lowest = 1.0;
    iter_options.growth = 2.0;
    iter_options.num_buckets = 31;
    r.block_iterations =
        &registry.GetHistogram("solve.block_iterations", iter_options);
    return r;
  }();
  return m;
}

/// Worst violation over the rows a decomposed solve answers for: every
/// free row, and the bucket rows of coupled buckets. Bucket rows of
/// uncoupled buckets hold exactly under the closed form.
double MaxViolation(const constraints::SystemView& rows,
                    const ComponentAnalysis& analysis,
                    const std::vector<double>& p) {
  double worst = 0.0;
  if (rows.bucket_rows != nullptr) {
    for (const uint32_t k : analysis.coupled_components()) {
      for (const uint32_t b : analysis.Buckets(k)) {
        const auto [first, last] = rows.BucketRowRange(b);
        for (uint32_t r = first; r < last; ++r) {
          worst = std::max(worst, (*rows.bucket_rows)[r].Violation(p));
        }
      }
    }
  }
  if (rows.free_rows != nullptr) {
    for (const auto& c : *rows.free_rows) {
      worst = std::max(worst, c.Violation(p));
    }
  }
  return worst;
}

}  // namespace

Result<std::vector<BlockRows>> RouteBlocks(
    const constraints::TermIndex& index, const constraints::SystemView& rows,
    const ComponentAnalysis& analysis, bool signatures) {
  const std::vector<uint32_t>& coupled = analysis.coupled_components();
  std::vector<BlockRows> blocks(coupled.size());
  // Block of a row: that of its first supported variable's component,
  // or -1 for empty support / an uncoupled component.
  const auto block_of = [&](const constraints::LinearConstraint& c) {
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (c.coefs[i] == 0.0) continue;
      const uint32_t k =
          analysis.ComponentOf(index.TermOf(c.vars[i]).bucket);
      auto it = std::lower_bound(coupled.begin(), coupled.end(), k);
      if (it == coupled.end() || *it != k) return int64_t{-1};
      return static_cast<int64_t>(it - coupled.begin());
    }
    return int64_t{-1};
  };
  const auto add = [&](BlockRows& sel, const constraints::LinearConstraint& c,
                       const Hash128* signature) {
    const bool is_eq = c.rel == knowledge::Relation::kEq;
    (is_eq ? sel.eq_rows : sel.ineq_rows).push_back(&c);
    if (signatures) {
      (is_eq ? sel.eq_row_sigs : sel.ineq_row_sigs)
          .push_back(signature != nullptr
                         ? *signature
                         : constraints::ConstraintRowSignature(c));
    }
  };

  for (size_t i = 0; i < coupled.size(); ++i) {
    BlockRows& block = blocks[i];
    const ComponentAnalysis::BucketSpan buckets =
        analysis.Buckets(coupled[i]);
    block.cols.reserve(analysis.components()[coupled[i]].num_variables);
    block.bucket_first_var.reserve(buckets.size());
    block.bucket_first_col.reserve(buckets.size());
    size_t num_bucket_rows = 0;
    for (const uint32_t b : buckets) {
      const auto [first, last] = index.BucketRange(b);
      block.bucket_first_var.push_back(first);
      block.bucket_first_col.push_back(
          static_cast<uint32_t>(block.cols.size()));
      for (uint32_t v = first; v < last; ++v) block.cols.push_back(v);
      const auto [row_first, row_last] = rows.BucketRowRange(b);
      num_bucket_rows += row_last - row_first;
    }
    // The block's bucket rows, in view order: by bucket, ascending. A
    // bucket row stays inside its bucket, so any supported one belongs
    // to this block — no per-row lookup.
    if (rows.bucket_rows == nullptr) continue;
    block.eq_rows.reserve(num_bucket_rows);
    if (signatures) block.eq_row_sigs.reserve(num_bucket_rows);
    for (const uint32_t b : buckets) {
      const auto [first, last] = rows.BucketRowRange(b);
      for (uint32_t r = first; r < last; ++r) {
        const constraints::LinearConstraint& c = (*rows.bucket_rows)[r];
        const bool supported =
            std::any_of(c.coefs.begin(), c.coefs.end(),
                        [](double v) { return v != 0.0; });
        if (!supported) {
          PME_RETURN_IF_ERROR(CheckUnroutedRow(c));
          continue;
        }
        add(block, c,
            rows.bucket_row_signatures != nullptr
                ? &(*rows.bucket_row_signatures)[r]
                : nullptr);
      }
    }
  }
  if (rows.free_rows != nullptr) {
    for (const auto& c : *rows.free_rows) {
      const int64_t block = block_of(c);
      if (block < 0) {
        PME_RETURN_IF_ERROR(CheckUnroutedRow(c));
        continue;
      }
      add(blocks[static_cast<size_t>(block)], c, nullptr);
    }
  }
  return blocks;
}

Result<MaxEntProblem> AssembleBlock(const BlockRows& block) {
  return AssembleProblem(block.eq_rows, block.ineq_rows,
                         block.bucket_first_var, block.bucket_first_col,
                         block.cols.size());
}

Result<SolverResult> SolveDecomposed(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index, const constraints::SystemView& rows,
    SolverKind kind, const SolverOptions& options,
    const constraints::ComponentAnalysis* precomputed) {
  Timer timer;
  trace::TraceSpan solve_span("solve_decomposed", "solve");
  GetSolveMetrics().runs->Add();
  std::optional<ComponentAnalysis> local_analysis;
  if (precomputed == nullptr) {
    local_analysis = ComponentAnalysis::Build(index, rows);
  }
  const ComponentAnalysis& analysis =
      precomputed ? *precomputed : *local_analysis;

  SolverResult result;
  result.kind = kind;
  result.converged = true;

  // Closed form everywhere first (exact for uncoupled components by
  // Theorem 5); the block solves overwrite the coupled ranges. A caller
  // that precomputed the prior (the artifact-serving path) hands it in
  // through the options — a copy instead of an O(table) re-derivation.
  const bool prior_provided =
      options.closed_form_prior != nullptr &&
      options.closed_form_prior->size() == index.num_variables();
  if (prior_provided) {
    result.p = *options.closed_form_prior;
  } else {
    result.p = ClosedFormNoKnowledge(table, index);
  }
  // With a precomputed prior entropy, the final entropy is derived by
  // adjusting only the coordinates the block solves overwrite.
  const bool incremental_entropy =
      prior_provided && std::isfinite(options.closed_form_prior_entropy);

  if (analysis.num_coupled() == 0) {
    result.entropy = incremental_entropy
                         ? options.closed_form_prior_entropy
                         : Entropy(result.p);
    result.max_violation = MaxViolation(rows, analysis, result.p);
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  SolutionCache* const cache = options.solution_cache;
  const bool cache_on =
      cache != nullptr && options.cache_mode != CacheMode::kOff;
  result.cache_enabled = cache_on;

  // Each coupled block's columns and rows, by reference into the view
  // (dense numbering: the coupled components in id order).
  std::vector<BlockRows> blocks;
  {
    trace::TraceSpan route_span("route", "solve");
    PME_ASSIGN_OR_RETURN(blocks, RouteBlocks(index, rows, analysis, cache_on));
    route_span.AddArg("blocks", static_cast<double>(blocks.size()));
  }

  // Solution-cache pre-pass: serial, in block-id order, so the census
  // (hits/misses) is identical for any thread count. An exact hit (same
  // rows digest) skips the block's solve entirely; under kWarm a
  // structure-only hit (same variable set, edited rows) yields a warm
  // dual matched row-by-row by content signature.
  std::vector<std::shared_ptr<const CachedComponentSolution>> exact_hits(
      blocks.size());
  std::vector<std::vector<double>> warm_vectors(blocks.size());
  std::vector<size_t> warm_rows(blocks.size(), 0);
  std::vector<Hash128> exact_keys(blocks.size());
  std::vector<Hash128> vars_keys(blocks.size());
  if (cache_on) {
    trace::TraceSpan lookup_span("cache_lookup", "solve");
    const std::vector<uint32_t>& coupled = analysis.coupled_components();
    std::vector<Hash128> row_sigs;
    for (size_t i = 0; i < blocks.size(); ++i) {
      const Hash128 vars_sig =
          constraints::ComponentVarsSignature(index, analysis, coupled[i]);
      row_sigs.assign(blocks[i].eq_row_sigs.begin(),
                      blocks[i].eq_row_sigs.end());
      row_sigs.insert(row_sigs.end(), blocks[i].ineq_row_sigs.begin(),
                      blocks[i].ineq_row_sigs.end());
      exact_keys[i] = MakeExactKey(
          constraints::ComponentRowsSignature(vars_sig, row_sigs), options);
      vars_keys[i] = MakeVarsKey(vars_sig, options);
      auto hit = cache->FindExact(exact_keys[i]);
      if (hit != nullptr && hit->p.size() == blocks[i].cols.size()) {
        exact_hits[i] = std::move(hit);
        ++result.cache_exact_hits;
        continue;
      }
      ++result.cache_misses;
      if (options.cache_mode == CacheMode::kWarm) {
        auto warm = cache->FindWarm(vars_keys[i]);
        if (warm != nullptr) {
          warm_vectors[i] = BuildWarmStart(*warm, blocks[i], &warm_rows[i]);
          if (!warm_vectors[i].empty()) ++result.cache_warm_hits;
        }
      }
    }
    lookup_span.AddArg("exact_hits",
                       static_cast<double>(result.cache_exact_hits));
  }

  // Per-component wall-time budgets: each coupled block gets a share of
  // the remaining deadline proportional to its variable count. Blocks
  // running in parallel each consume their own share of wall time; in a
  // serial run the shares are relative to each block's own start, with
  // the request deadline as the hard cap either way.
  size_t total_block_vars = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    // Blocks answered from the cache consume no solve time; the deadline
    // budget is shared among the blocks that actually run.
    if (exact_hits[i] != nullptr) continue;
    total_block_vars += blocks[i].cols.size();
  }
  const double remaining_at_start = options.deadline.RemainingSeconds();
  std::vector<double> budget_seconds(blocks.size(), 0.0);
  for (size_t i = 0; i < blocks.size(); ++i) {
    budget_seconds[i] = remaining_at_start *
                        static_cast<double>(blocks[i].cols.size()) /
                        static_cast<double>(std::max<size_t>(total_block_vars,
                                                             1));
  }

  // Solve every block independently — in parallel when asked to. Each
  // task only writes its own slot, and the scatter below runs after the
  // barrier in block order, so the assembly is deterministic for any
  // thread count.
  std::vector<std::optional<Result<SolverResult>>> block_results(
      blocks.size());
  std::vector<size_t> block_attempts(blocks.size(), 0);
  std::vector<double> block_seconds(blocks.size(), 0.0);
  const size_t threads = ThreadPool::ResolveThreads(options.threads);
  // Pool workers carry no ambient trace id of their own; capturing the
  // requester's id here and re-installing it inside the task stitches
  // worker-thread block spans into the request's timeline.
  const uint64_t request_trace_id = trace::CurrentTraceId();
  // Only blocks the cache did not answer become tasks: an exact hit
  // costs no task hand-off and wakes no worker.
  std::vector<size_t> solving;
  solving.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (exact_hits[i] == nullptr) solving.push_back(i);
  }
  const std::function<void(size_t)> block_task = [&](size_t task) {
        const size_t i = solving[task];
        trace::TraceIdScope trace_scope(request_trace_id);
        trace::TraceSpan block_span("solve_block", "solve");
        block_span.AddArg("block", static_cast<double>(i));
        Timer block_timer;
        const BlockRows& sel = blocks[i];
        block_span.AddArg("vars", static_cast<double>(sel.cols.size()));
        SolverOptions block_options = options;
        if (!warm_vectors[i].empty()) {
          block_options.warm_start_original = &warm_vectors[i];
        }
        if (!options.deadline.is_infinite()) {
          block_options.deadline = Deadline::Earlier(
              options.deadline, Deadline::AfterSeconds(budget_seconds[i]));
        }
        // Failpoint `block_deadline@N`: the Nth block solved starts with
        // an already-spent budget — the deterministic stand-in for "this
        // component's share of the deadline ran out".
        if (PME_FAILPOINT("block_deadline")) {
          block_options.deadline = Deadline::AfterSeconds(0.0);
        }
        // Failpoint `pool_task_throw@N`: the Nth block task throws,
        // exercising the pool's exception containment end to end (the
        // slot stays unset and the component degrades below).
        if (PME_FAILPOINT("pool_task_throw")) {
          throw std::runtime_error("injected pool_task_throw failpoint");
        }
        auto solve_block = [&]() -> Result<SolverResult> {
          Result<MaxEntProblem> assembled = [&] {
            trace::TraceSpan assemble_span("assemble", "solve");
            return AssembleBlock(sel);
          }();
          PME_ASSIGN_OR_RETURN(const MaxEntProblem sub, std::move(assembled));
          return SolveWithFallback(sub, kind, block_options,
                                   &block_attempts[i]);
        };
        block_results[i] = solve_block();
        block_seconds[i] = block_timer.ElapsedSeconds();
      };
  // A shared pool (the serving path) hosts the tasks as one batch —
  // only this solve's blocks are awaited; otherwise a private pool of
  // `threads` workers is spun for this call (serial inline when 1).
  const Status pool_status =
      options.pool != nullptr
          ? options.pool->RunBatch(solving.size(), block_task)
          : ThreadPool::ParallelFor(threads, solving.size(), block_task);

  // Aggregate. A component whose every rung failed keeps its closed-form
  // no-knowledge prior (already in result.p) and is flagged — one bad
  // component must degrade its own answer, never the whole analysis.
  result.component_outcomes.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    ComponentOutcome outcome;
    outcome.block = static_cast<uint32_t>(i);
    outcome.num_variables = blocks[i].cols.size();
    outcome.attempts = block_attempts[i];
    outcome.solver = kind;
    outcome.seconds = block_seconds[i];

    if (exact_hits[i] != nullptr) {
      // Scatter the cached posterior slice; no solve ran, so this block
      // contributes zero iterations (the bench's speedup measurement)
      // while its dual value and convergence flag still count toward the
      // aggregate exactly as the original solve's did.
      const CachedComponentSolution& cached = *exact_hits[i];
      const auto& cols = blocks[i].cols;
      for (size_t j = 0; j < cols.size(); ++j) {
        result.p[cols[j]] = cached.p[j];
      }
      result.dual_value += cached.dual_value;
      result.presolve_fixed += cached.presolve_fixed;
      result.converged = result.converged && cached.converged;
      outcome.status = StatusCode::kOk;
      outcome.cache = CacheOutcome::kExactHit;
      ++result.components_solved;
      result.component_outcomes.push_back(outcome);
      continue;
    }
    if (!warm_vectors[i].empty()) {
      outcome.cache = CacheOutcome::kWarmStart;
      outcome.warm_start_rows = warm_rows[i];
    }

    Status block_error = Status::Ok();
    const SolverResult* sub = nullptr;
    if (!block_results[i].has_value()) {
      // The task never stored a result: it threw (and was contained by
      // the pool). pool_status carries the first exception message.
      block_error = pool_status.ok()
                        ? Status::Internal("block task produced no result")
                        : pool_status;
    } else if (!block_results[i]->ok()) {
      block_error = block_results[i]->status();
    } else {
      sub = &block_results[i]->value();
    }
    if (sub != nullptr) outcome.iterations = sub->iterations;

    const bool usable = sub != nullptr && IsAcceptable(*sub);
    if (usable) {
      const auto& cols = blocks[i].cols;
      for (size_t j = 0; j < cols.size(); ++j) result.p[cols[j]] = sub->p[j];
      result.iterations += sub->iterations;
      result.dual_value += sub->dual_value;
      result.presolve_fixed += sub->presolve_fixed;
      result.converged = result.converged && sub->converged;
      outcome.solver = sub->kind;
      outcome.status = sub->termination;
      outcome.degraded = sub->degraded;
      if (sub->degraded) {
        ++result.components_degraded;
      } else {
        ++result.components_solved;
      }
    } else if (sub != nullptr && sub->iterations > 0 &&
               sub->termination != StatusCode::kNumericalError &&
               std::isfinite(sub->max_violation)) {
      // Unacceptable but finite, with real progress made: a
      // hard-to-converge or interrupted block keeps its best-so-far
      // iterate — same contract the pre-fallback solver had for
      // non-converged blocks — rather than throwing the work away. A
      // block that never got to iterate (budget spent up front) falls
      // through to the prior instead: its untouched start point is worse
      // than the closed form.
      const auto& cols = blocks[i].cols;
      for (size_t j = 0; j < cols.size(); ++j) result.p[cols[j]] = sub->p[j];
      result.iterations += sub->iterations;
      outcome.solver = sub->kind;
      outcome.status = sub->termination == StatusCode::kOk
                           ? StatusCode::kNotConverged
                           : sub->termination;
      outcome.degraded = true;
      ++result.components_degraded;
      result.converged = false;
    } else {
      // Degrade to the closed-form prior already sitting in result.p.
      outcome.degraded = true;
      outcome.used_prior = true;
      if (sub != nullptr) {
        outcome.solver = sub->kind;
        outcome.status = sub->termination == StatusCode::kOk
                             ? StatusCode::kNotConverged
                             : sub->termination;
        result.iterations += sub->iterations;
        ++result.components_degraded;
      } else {
        outcome.status = block_error.code();
        ++result.components_failed;
      }
      result.converged = false;
    }
    result.component_outcomes.push_back(outcome);
  }

  {
    SolveMetrics& sm = GetSolveMetrics();
    sm.components_solved->Add(result.components_solved);
    sm.components_degraded->Add(result.components_degraded);
    sm.components_failed->Add(result.components_failed);
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (exact_hits[i] != nullptr) continue;  // no solve ran
      sm.block_seconds->Observe(block_seconds[i]);
    }
    for (const ComponentOutcome& outcome : result.component_outcomes) {
      if (outcome.cache == CacheOutcome::kExactHit) continue;
      sm.block_iterations->Observe(
          static_cast<double>(outcome.iterations));
    }
    solve_span.AddArg("blocks", static_cast<double>(blocks.size()));
  }

  // Publish freshly solved, acceptable block solutions — serially and in
  // block-id order, so insertions (and therefore evictions and the whole
  // cache census) are identical for any --threads value.
  if (cache_on) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (exact_hits[i] != nullptr) continue;
      if (!block_results[i].has_value() || !block_results[i]->ok()) continue;
      const SolverResult& sub = block_results[i]->value();
      if (!IsAcceptable(sub)) continue;
      CachedComponentSolution entry;
      entry.p = sub.p;
      entry.lambda_full = sub.dual_lambda_full;
      // Copied, not moved: routing leaves spare capacity in these vectors
      // that the cache's residency budget would not account for.
      entry.eq_row_sigs = blocks[i].eq_row_sigs;
      entry.ineq_row_sigs = blocks[i].ineq_row_sigs;
      entry.dual_value = sub.dual_value;
      entry.iterations = sub.iterations;
      entry.presolve_fixed = sub.presolve_fixed;
      entry.converged = sub.converged;
      cache->Insert(exact_keys[i], vars_keys[i], std::move(entry));
    }
    const SolutionCacheStats stats = cache->Stats();
    result.cache_entries = stats.entries;
    result.cache_evictions = stats.evictions;
    result.cache_resident_doubles = stats.resident_doubles;
  }

  result.degraded =
      result.components_degraded > 0 || result.components_failed > 0;
  // A cooperative cancel outranks per-component bookkeeping: the caller
  // asked the whole request to stop, and the aggregate says so (while
  // still carrying the partial answer). A spent request deadline
  // likewise marks the aggregate, so callers can tell "finished with
  // degraded parts" from "ran out of time".
  if (options.cancel.cancelled()) {
    result.termination = StatusCode::kCancelled;
  } else if (options.deadline.Expired()) {
    result.termination = StatusCode::kDeadlineExceeded;
  }

  if (incremental_entropy) {
    // -sum p ln p, starting from the prior's entropy and swapping in the
    // coupled coordinates' contributions (blocks never overlap).
    double entropy = options.closed_form_prior_entropy;
    const std::vector<double>& prior = *options.closed_form_prior;
    // Gather each block's prior/posterior slices into reused contiguous
    // buffers so both -Σ x ln x reductions run as single batched kernel
    // passes instead of per-coordinate scalar XLogX calls.
    std::vector<double> prior_slice;
    std::vector<double> post_slice;
    for (const auto& block : blocks) {
      prior_slice.resize(block.cols.size());
      post_slice.resize(block.cols.size());
      for (size_t j = 0; j < block.cols.size(); ++j) {
        prior_slice[j] = prior[block.cols[j]];
        post_slice[j] = result.p[block.cols[j]];
      }
      entropy += kernels::NegXLogXSum(kernels::ConstSpan(post_slice)) -
                 kernels::NegXLogXSum(kernels::ConstSpan(prior_slice));
    }
    result.entropy = entropy;
  } else {
    result.entropy = Entropy(result.p);
  }
  result.max_violation = MaxViolation(rows, analysis, result.p);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace pme::maxent
