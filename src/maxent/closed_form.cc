#include "maxent/closed_form.h"

namespace pme::maxent {

std::vector<double> ClosedFormNoKnowledge(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index) {
  std::vector<double> p(index.num_variables(), 0.0);
  for (uint32_t b = 0; b < table.num_buckets(); ++b) {
    const auto& qis = index.BucketQiList(b);
    const auto& sas = index.BucketSaList(b);
    const uint32_t first = index.BucketRange(b).first;
    const double prob_b = table.ProbB(b);
    const uint32_t h = static_cast<uint32_t>(sas.size());
    for (uint32_t qi_rank = 0; qi_rank < qis.size(); ++qi_rank) {
      const double pq = table.ProbQB(qis[qi_rank], b);
      for (uint32_t sa_rank = 0; sa_rank < h; ++sa_rank) {
        const double ps = table.ProbSB(sas[sa_rank], b);
        p[first + qi_rank * h + sa_rank] = pq * ps / prob_b;
      }
    }
  }
  return p;
}

}  // namespace pme::maxent
