#include "constraints/term_index.h"

#include <algorithm>
#include <iterator>

namespace pme::constraints {

TermIndex TermIndex::Build(const anonymize::BucketizedTable& table,
                           size_t /*threads*/) {
  TermIndex index;
  const size_t m = table.num_buckets();
  index.bucket_qi_.resize(m);
  index.bucket_sa_.resize(m);
  index.bucket_offsets_.assign(m + 1, 0);
  for (size_t b = 0; b < m; ++b) {
    // Distinct instances from the bucket's published multisets: flat
    // vectors, cheaper to walk than the per-bucket count maps.
    auto& qis = index.bucket_qi_[b];
    auto& sas = index.bucket_sa_[b];
    qis = table.BucketQis(b);
    std::sort(qis.begin(), qis.end());
    qis.erase(std::unique(qis.begin(), qis.end()), qis.end());
    const std::vector<uint32_t>& published_sas = table.BucketSas(b);  // sorted
    std::unique_copy(published_sas.begin(), published_sas.end(),
                     std::back_inserter(sas));
    for (uint32_t q : qis) {
      for (uint32_t s : sas) {
        index.terms_.push_back(Term{q, s, static_cast<uint32_t>(b)});
      }
    }
    index.bucket_offsets_[b + 1] = static_cast<uint32_t>(index.terms_.size());
  }
  return index;
}

std::optional<uint32_t> TermIndex::FindVariable(uint32_t q, uint32_t s,
                                                uint32_t b) const {
  if (b >= bucket_qi_.size()) return std::nullopt;
  const auto& qis = bucket_qi_[b];
  const auto& sas = bucket_sa_[b];
  auto qit = std::lower_bound(qis.begin(), qis.end(), q);
  if (qit == qis.end() || *qit != q) return std::nullopt;
  auto sit = std::lower_bound(sas.begin(), sas.end(), s);
  if (sit == sas.end() || *sit != s) return std::nullopt;
  const size_t qi_rank = static_cast<size_t>(qit - qis.begin());
  const size_t sa_rank = static_cast<size_t>(sit - sas.begin());
  return bucket_offsets_[b] +
         static_cast<uint32_t>(qi_rank * sas.size() + sa_rank);
}

Result<uint32_t> TermIndex::VariableId(uint32_t q, uint32_t s,
                                       uint32_t b) const {
  if (b >= bucket_qi_.size()) {
    return Status::InvalidArgument("bucket index out of range");
  }
  if (const auto var = FindVariable(q, s, b)) return *var;
  const auto& qis = bucket_qi_[b];
  if (!std::binary_search(qis.begin(), qis.end(), q)) {
    return Status::NotFound("P(q,s,b) is a Zero-invariant: q not in bucket");
  }
  return Status::NotFound("P(q,s,b) is a Zero-invariant: s not in bucket");
}

bool TermIndex::IsZeroInvariant(uint32_t q, uint32_t s, uint32_t b) const {
  return !FindVariable(q, s, b).has_value();
}

std::string TermIndex::TermName(
    uint32_t var, const anonymize::BucketizedTable& table) const {
  const Term& t = terms_[var];
  return "P(" + table.QiName(t.qi) + "," + table.SaName(t.sa) + ",b" +
         std::to_string(t.bucket + 1) + ")";
}

}  // namespace pme::constraints
