#include "constraints/component_analysis.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace pme::constraints {
namespace {

/// Minimal union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace

namespace {

bool IsKnowledgeRow(const LinearConstraint& c) {
  // Anything beyond the structural invariants (knowledge rows, but also
  // ad-hoc kOther rows) invalidates the closed form for its component.
  return c.source != ConstraintSource::kQiInvariant &&
         c.source != ConstraintSource::kSaInvariant;
}

}  // namespace

void ComponentAnalysis::NumberComponents(
    const TermIndex& index, size_t num_roots,
    const std::vector<uint8_t>& root_coupled) {
  const size_t num_buckets = bucket_component_.size();
  // Pass 1: ids by first appearance in bucket order; bucket_end counts
  // the component's buckets for now.
  std::vector<uint32_t> root_to_id(num_roots, UINT32_MAX);
  components_.reserve(num_roots);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    const uint32_t root = bucket_component_[b];
    uint32_t id = root_to_id[root];
    if (id == UINT32_MAX) {
      id = static_cast<uint32_t>(components_.size());
      root_to_id[root] = id;
      components_.emplace_back();
      components_.back().coupled = root_coupled[root] != 0;
    }
    bucket_component_[b] = id;
    Component& comp = components_[id];
    ++comp.bucket_end;
    const auto [first, last] = index.BucketRange(b);
    comp.num_variables += last - first;
  }
  // Pass 2: counts -> offsets, then place every bucket; bucket_end walks
  // from bucket_begin back to its final value.
  uint32_t offset = 0;
  for (Component& comp : components_) {
    comp.bucket_begin = offset;
    offset += comp.bucket_end;
    comp.bucket_end = comp.bucket_begin;
  }
  bucket_order_.resize(num_buckets);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    bucket_order_[components_[bucket_component_[b]].bucket_end++] = b;
  }
  for (uint32_t k = 0; k < components_.size(); ++k) {
    if (components_[k].coupled) coupled_.push_back(k);
  }
}

ComponentAnalysis ComponentAnalysis::Build(const TermIndex& index,
                                           const SystemView& rows) {
  const size_t num_buckets = index.num_buckets();
  UnionFind uf(num_buckets);
  std::vector<uint8_t> touched(num_buckets, 0);  // by knowledge rows

  const auto add = [&](const LinearConstraint& c) {
    const bool is_knowledge = IsKnowledgeRow(c);
    int64_t first_bucket = -1;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (c.coefs[i] == 0.0) continue;
      const uint32_t b = index.TermOf(c.vars[i]).bucket;
      if (is_knowledge) touched[b] = 1;
      if (first_bucket < 0) {
        first_bucket = b;
      } else {
        uf.Union(static_cast<uint32_t>(first_bucket), b);
      }
    }
  };
  if (rows.bucket_rows != nullptr) {
    for (uint32_t b = 0; b < num_buckets; ++b) {
      const auto [first, last] = rows.BucketRowRange(b);
      for (uint32_t r = first; r < last; ++r) add((*rows.bucket_rows)[r]);
    }
  }
  if (rows.free_rows != nullptr) {
    for (const auto& c : *rows.free_rows) add(c);
  }

  ComponentAnalysis out;
  out.bucket_component_.resize(num_buckets);
  std::vector<uint8_t> root_coupled(num_buckets, 0);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    const uint32_t root = uf.Find(b);
    out.bucket_component_[b] = root;
    root_coupled[root] |= touched[b];
  }
  out.NumberComponents(index, num_buckets, root_coupled);
  return out;
}

ComponentAnalysis ComponentAnalysis::Extend(
    const ComponentAnalysis& base, const TermIndex& index,
    const std::vector<LinearConstraint>& extra) {
  const size_t num_buckets = index.num_buckets();
  const size_t num_base = base.num_components();
  // Union-find over *base components*: the base already merged every
  // bucket inside a component, so only component-level merges remain.
  UnionFind uf(num_base);
  std::vector<uint8_t> touched(num_base, 0);
  for (const uint32_t k : base.coupled_components()) touched[k] = 1;
  for (const auto& c : extra) {
    const bool is_knowledge = IsKnowledgeRow(c);
    int64_t first_comp = -1;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (c.coefs[i] == 0.0) continue;
      const uint32_t k = base.ComponentOf(index.TermOf(c.vars[i]).bucket);
      if (is_knowledge) touched[k] = 1;
      if (first_comp < 0) {
        first_comp = k;
      } else {
        uf.Union(static_cast<uint32_t>(first_comp), k);
      }
    }
  }

  // Renumbered by first appearance in bucket order — identical to
  // Build's numbering because a merged component's smallest bucket
  // decides both.
  ComponentAnalysis out;
  out.bucket_component_.resize(num_buckets);
  std::vector<uint8_t> root_coupled(num_base, 0);
  for (uint32_t k = 0; k < num_base; ++k) {
    root_coupled[uf.Find(k)] |= touched[k];
  }
  for (uint32_t b = 0; b < num_buckets; ++b) {
    out.bucket_component_[b] = uf.Find(base.ComponentOf(b));
  }
  out.NumberComponents(index, num_base, root_coupled);
  return out;
}

Hash128 ConstraintRowSignature(const LinearConstraint& constraint) {
  // Canonical support: zero coefficients dropped, duplicates summed,
  // sorted by variable id — the row's content independent of the order
  // its terms were emitted in.
  std::vector<std::pair<uint32_t, double>> support;
  support.reserve(constraint.vars.size());
  for (size_t i = 0; i < constraint.vars.size(); ++i) {
    if (constraint.coefs[i] == 0.0) continue;
    support.emplace_back(constraint.vars[i], constraint.coefs[i]);
  }
  std::sort(support.begin(), support.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t w = 0;
  for (size_t i = 0; i < support.size(); ++i) {
    if (w > 0 && support[w - 1].first == support[i].first) {
      support[w - 1].second += support[i].second;
    } else {
      support[w++] = support[i];
    }
  }
  support.resize(w);

  Hasher128 h;
  h.Update(std::string_view("pme.row.v1"));
  h.Update(static_cast<int>(constraint.rel));
  h.Update(constraint.rhs);
  h.Update(static_cast<uint64_t>(support.size()));
  for (const auto& [var, coef] : support) {
    h.Update(var);
    h.Update(coef);
  }
  return h.Finish();
}

Hash128 ComponentVarsSignature(const TermIndex& index,
                               const ComponentAnalysis& analysis, size_t k) {
  const ComponentAnalysis::BucketSpan buckets = analysis.Buckets(k);
  Hasher128 h;
  h.Update(std::string_view("pme.vars.v1"));
  h.Update(static_cast<uint64_t>(index.num_variables()));
  h.Update(static_cast<uint64_t>(index.num_buckets()));
  h.Update(static_cast<uint64_t>(buckets.size()));
  for (const uint32_t b : buckets) {
    const auto [first, last] = index.BucketRange(b);
    h.Update(b);
    h.Update(static_cast<uint64_t>(last - first));
  }
  return h.Finish();
}

Hash128 ComponentRowsSignature(const Hash128& vars_signature,
                               std::vector<Hash128> row_signatures) {
  // Sorted, so the digest is independent of row order (as the solution
  // is).
  std::sort(row_signatures.begin(), row_signatures.end());
  Hasher128 h;
  h.Update(std::string_view("pme.rows.v1"));
  h.Update(vars_signature);
  h.Update(static_cast<uint64_t>(row_signatures.size()));
  for (const Hash128& sig : row_signatures) h.Update(sig);
  return h.Finish();
}

}  // namespace pme::constraints
