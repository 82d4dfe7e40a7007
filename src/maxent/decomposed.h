// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_DECOMPOSED_H_
#define PME_MAXENT_DECOMPOSED_H_

#include <cstdint>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/hash.h"
#include "common/status.h"
#include "constraints/component_analysis.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "maxent/problem.h"
#include "maxent/solver.h"

namespace pme::maxent {

/// The Section 5.5 optimization, taken one step further: buckets
/// *irrelevant* to the background knowledge (Definition 5.6) keep the
/// Theorem-5 closed form (Lemma 2), and the *relevant* set is split into
/// independent connected components (constraints::ComponentAnalysis) —
/// the constraint matrix is block-diagonal across components, so each
/// block is solved as its own, much smaller dual problem. Blocks run in
/// parallel when `options.threads > 1`; the result is identical for any
/// thread count (per-block solves are deterministic and scatter into
/// disjoint variable ranges).
///
/// Equivalent to `Solve` on the full system (Proposition 1; the dual
/// separates because components share no variables), but on
/// Figure-7-style workloads where knowledge touches a small fraction of
/// buckets this is the difference between one O(n) dual and many O(n_k)
/// duals — seconds vs minutes. There is no separate whole-system path:
/// when knowledge couples every bucket into one component, that
/// component is simply one block.
///
/// The returned SolverResult's `p` covers the full variable space;
/// `iterations` sums the block solves and `seconds` is the wall time of
/// the whole decomposed pipeline.
///
/// Failure semantics: each block runs the SolveWithFallback ladder under
/// a wall-time budget proportional to its variable count (a slice of
/// `options.deadline`).
/// A block that ends unacceptable but made real progress keeps its best
/// finite iterate (the contract non-converged solves always had); a
/// block with no usable iterate — poisoned numerics, a thrown task, a
/// budget spent before the first iteration — keeps its
/// closed-form no-knowledge prior. Both are reported in
/// `component_outcomes` / `components_{solved,degraded,failed}`; the
/// call still returns Ok with `degraded = true`, so one bad component
/// never sinks the whole analysis. `termination` is kCancelled when the
/// token fired, kDeadlineExceeded when the request deadline is spent.
///
/// Rows arrive through a constraints::SystemView, by reference: a
/// ConstraintSystem converts implicitly; a table-artifact session passes
/// the artifact's bucket-grouped invariant rows (with their precomputed
/// signatures) plus the request's knowledge rows, so only the invariant
/// rows of knowledge-coupled buckets are ever read. Stages: route rows
/// to blocks (RouteBlocks), look each block up in the solution cache,
/// assemble and solve the blocks that missed (AssembleBlock — no
/// whole-system matrix is ever built), publish fresh solutions.
/// `precomputed`, when non-null, is the ComponentAnalysis of `rows` over
/// `index` (typically ComponentAnalysis::Extend of a table artifact's
/// invariants-only base) and must match what
/// ComponentAnalysis::Build(index, rows) would produce; the solve then
/// skips its own union-find pass. Not owned; must outlive the call.
/// Scheduling: `options.pool`, when set, hosts the block tasks
/// (shared-pool serving); otherwise a private pool of `options.threads`
/// workers is spun per call.
Result<SolverResult> SolveDecomposed(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index, const constraints::SystemView& rows,
    SolverKind kind = SolverKind::kLbfgs, const SolverOptions& options = {},
    const constraints::ComponentAnalysis* precomputed = nullptr);

/// One coupled block of a decomposed solve: its columns and the rows
/// routed to it, by reference into the solve's SystemView.
struct BlockRows {
  /// Full-space variable ids, ascending (the block's bucket ranges).
  std::vector<uint32_t> cols;
  /// Per bucket of the block, ascending: its first variable id, and the
  /// position in `cols` where its range starts.
  std::vector<uint32_t> bucket_first_var;
  std::vector<uint32_t> bucket_first_col;
  /// Rows in view order, split as BuildProblem splits them: equality
  /// rows, and inequality rows (kLe, and kGe negated when assembled).
  std::vector<const constraints::LinearConstraint*> eq_rows;
  std::vector<const constraints::LinearConstraint*> ineq_rows;
  /// ConstraintRowSignature of each row, aligned with eq_rows /
  /// ineq_rows; filled only when RouteBlocks was asked for signatures.
  std::vector<Hash128> eq_row_sigs;
  std::vector<Hash128> ineq_row_sigs;
};

/// Routes `rows` to the coupled blocks of `analysis` (block i is
/// component analysis.coupled_components()[i]). A row goes to the block
/// of its first supported variable — union-find put every bucket it
/// touches into one component. Bucket rows of uncoupled buckets are
/// never read, and free rows landing on an uncoupled component are
/// skipped: both are satisfied exactly by the closed form. A visited row
/// with empty support must be vacuous (kInfeasible otherwise). With
/// `signatures`, each block also gets its row signatures — the view's
/// precomputed ones for bucket rows when it carries them, hashed here
/// otherwise. Cost: O(coupled buckets' rows + free rows).
Result<std::vector<BlockRows>> RouteBlocks(
    const constraints::TermIndex& index, const constraints::SystemView& rows,
    const constraints::ComponentAnalysis& analysis, bool signatures);

/// The block's subproblem, assembled straight from its routed rows by
/// AssembleProblem over the block's bucket runs: entry for entry what
/// BuildProblem on the whole system followed by SparseMatrix::Submatrix
/// on the block's rows and columns produces, at the cost of the block's
/// own nonzeros.
Result<MaxEntProblem> AssembleBlock(const BlockRows& block);

/// Statistics of the decomposition (for the ablation bench).
struct DecompositionStats {
  size_t relevant_buckets = 0;    ///< buckets inside coupled components
  size_t irrelevant_buckets = 0;  ///< closed-form buckets
  size_t relevant_variables = 0;
  size_t total_variables = 0;
  /// Component census: total blocks, knowledge-coupled blocks, and the
  /// variable count of every coupled block (for size histograms).
  size_t num_components = 0;
  size_t num_coupled_components = 0;
  std::vector<size_t> coupled_component_variables;
  /// Per-coupled-block solve effort of the *last* decomposed solve, in
  /// block-id order (dual iterations and wall seconds; 0 / ~0 for exact
  /// cache hits). Filled by the pipeline from
  /// SolverResult::component_outcomes — AnalyzeDecomposition alone leaves
  /// them empty (it never solves).
  std::vector<size_t> coupled_component_iterations;
  std::vector<double> coupled_component_seconds;
};

/// `precomputed` as in SolveDecomposed: a caller that already holds the
/// ComponentAnalysis of (index, rows) passes it to skip the pass; the
/// census then costs O(coupled components).
DecompositionStats AnalyzeDecomposition(
    const constraints::TermIndex& index, const constraints::SystemView& rows,
    const constraints::ComponentAnalysis* precomputed = nullptr);

}  // namespace pme::maxent

#endif  // PME_MAXENT_DECOMPOSED_H_
