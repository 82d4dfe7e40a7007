// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CONSTRAINTS_COMPONENT_ANALYSIS_H_
#define PME_CONSTRAINTS_COMPONENT_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "constraints/system.h"
#include "constraints/term_index.h"

namespace pme::constraints {

/// Connected-component analysis of the bucket coupling graph.
///
/// Buckets are nodes; every constraint whose support spans multiple
/// buckets joins them into one component (union-find). Invariants
/// (Eqs. 4-5) touch exactly one bucket, so only background/individual
/// knowledge rows ever merge buckets — but the analysis unions over *all*
/// constraint support, so it stays correct if some future constraint
/// source couples buckets too.
///
/// This refines Definition 5.6: the paper splits buckets into relevant
/// vs irrelevant to the knowledge; here the relevant set decomposes
/// further into independent blocks. The full MaxEnt problem is
/// block-diagonal across components (disjoint variables, separable
/// entropy), so each coupled component can be solved as its own — much
/// smaller — dual problem, and knowledge-free components keep the
/// Theorem-5 closed form.
class ComponentAnalysis {
 public:
  struct Component {
    /// Range of this component's buckets (see Buckets) in one flat
    /// array holding every component's buckets, grouped by component —
    /// a partition costs a few integer arrays, not one heap vector per
    /// component.
    uint32_t bucket_begin = 0;
    uint32_t bucket_end = 0;
    /// Total materialized variables across those buckets.
    size_t num_variables = 0;
    /// True when some non-invariant constraint (background/individual
    /// knowledge, or an ad-hoc row) touches the component; false means
    /// the Theorem-5 closed form is exact here.
    bool coupled = false;

    size_t num_buckets() const { return bucket_end - bucket_begin; }
  };

  /// A component's buckets, ascending: a view into the flat array.
  struct BucketSpan {
    const uint32_t* first = nullptr;
    const uint32_t* last = nullptr;
    const uint32_t* begin() const { return first; }
    const uint32_t* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
    uint32_t operator[](size_t i) const { return first[i]; }
  };

  /// Builds the partition for `rows` over `index`'s variable space (a
  /// ConstraintSystem converts to a view). Components are numbered in
  /// order of their smallest bucket id, so the numbering is
  /// deterministic.
  static ComponentAnalysis Build(const TermIndex& index,
                                 const SystemView& rows);

  /// Extends a prebuilt partition with additional constraint rows:
  /// unions the base components joined by each row's support and marks
  /// the touched components coupled (by the same invariant/knowledge
  /// rule Build applies). Produces exactly what Build would over the
  /// concatenation of the constraints behind `base` and `extra` — same
  /// deterministic numbering by smallest bucket id — but only scans
  /// `extra`: the per-request path reuses a table artifact's
  /// invariants-only partition and pays for the knowledge rows plus one
  /// integer pass over the buckets.
  static ComponentAnalysis Extend(const ComponentAnalysis& base,
                                  const TermIndex& index,
                                  const std::vector<LinearConstraint>& extra);

  const std::vector<Component>& components() const { return components_; }
  size_t num_components() const { return components_.size(); }

  /// Buckets of component k, ascending.
  BucketSpan Buckets(size_t k) const {
    const Component& c = components_[k];
    return {bucket_order_.data() + c.bucket_begin,
            bucket_order_.data() + c.bucket_end};
  }

  /// Component id of a bucket.
  uint32_t ComponentOf(uint32_t bucket) const {
    return bucket_component_[bucket];
  }

  /// Ids of the coupled components, ascending. Position i is the dense
  /// block number SolveDecomposed gives component coupled_components()[i].
  const std::vector<uint32_t>& coupled_components() const { return coupled_; }

  /// Number of components with the coupled flag set.
  size_t num_coupled() const { return coupled_.size(); }

 private:
  /// Turns bucket_component_ — holding each bucket's union-find root
  /// among `num_roots` — into component ids numbered by first appearance
  /// in bucket order, and lays out bucket_order_, the per-component
  /// variable counts, coupled flags (`root_coupled`, by root) and
  /// coupled_.
  void NumberComponents(const TermIndex& index, size_t num_roots,
                        const std::vector<uint8_t>& root_coupled);

  std::vector<Component> components_;
  std::vector<uint32_t> bucket_component_;  // size num_buckets
  std::vector<uint32_t> bucket_order_;      // size num_buckets
  std::vector<uint32_t> coupled_;
};

/// Content signature of one constraint row: relation, bound, and the
/// sorted (variable, coefficient) support with zero coefficients dropped
/// and duplicate variables summed. Label and source are excluded — two
/// rows with identical content constrain the solve identically. The
/// digest is stable across runs and platforms (see common/hash.h), which
/// is what lets a solution cached in one process serve another.
Hash128 ConstraintRowSignature(const LinearConstraint& constraint);

/// Content digests of one coupled component, the keys of the solution
/// cache (maxent/solution_cache.h):
///
///  - the *vars* signature identifies the component's variable structure
///    only: its bucket ids and per-bucket variable counts, plus an
///    index-shape guard (total variables/buckets). Equal vars signatures
///    ⇒ the block's column selection — and therefore its posterior-slice
///    layout and the meaning of a cached dual — is identical.
///  - the *rows* signature extends the vars signature with the sorted
///    multiset of ConstraintRowSignature of every row routed to the block
///    (content including bounds). Equal rows signatures ⇒ byte-identical
///    subproblem, so a cached solution can be scattered without
///    re-solving.
///
/// The warm-start near-miss of the solution cache is exactly "vars
/// signature equal, rows signature different": same variables, edited
/// constraint rows.
Hash128 ComponentVarsSignature(const TermIndex& index,
                               const ComponentAnalysis& analysis, size_t k);
/// `row_signatures` in any order (they are sorted here).
Hash128 ComponentRowsSignature(const Hash128& vars_signature,
                               std::vector<Hash128> row_signatures);

}  // namespace pme::constraints

#endif  // PME_CONSTRAINTS_COMPONENT_ANALYSIS_H_
