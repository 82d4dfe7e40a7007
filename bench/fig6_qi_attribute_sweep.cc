// Reproduces Figure 6: "Number of QI attributes in knowledge" —
// estimation accuracy vs K when the background knowledge is restricted to
// association rules with exactly T QI attributes, for T = 1..8.
//
// Expected shape (paper): the effect of knowledge weakens from T=1 to
// T=4 (fewer records per rule as support thins out), then strengthens
// again toward T=8 (each rule pins the full-QI conditional the metric is
// evaluated on).
//
// Default: 2,000 records and T in {1..4} (seconds);
// --full: 14,210 records and T = 1..8.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  const auto scale = pme::bench::ResolveScale(flags, 1000, {"maxt", "kmax"});
  const size_t max_t =
      static_cast<size_t>(flags.GetInt("maxt", scale.full ? 8 : 4));

  std::printf("# Figure 6 reproduction: accuracy vs K per rule width T\n");
  std::printf("# records=%zu full=%d T=1..%zu\n", scale.records, scale.full,
              max_t);
  auto pipeline = pme::bench::BuildStandardPipeline(scale, max_t);

  const size_t max_k = pme::bench::KMaxFlag(flags, scale, 300000);

  std::vector<std::string> header = {"k"};
  for (size_t t = 1; t <= max_t; ++t) header.push_back("T" + std::to_string(t));
  pme::bench::CsvWriter csv(scale.csv_path, header);

  // Pre-split the rules by T.
  std::vector<std::vector<pme::knowledge::AssociationRule>> by_t(max_t + 1);
  for (size_t t = 1; t <= max_t; ++t) {
    by_t[t] = pme::knowledge::FilterByNumAttributes(pipeline.rules, t);
  }

  std::printf("%10s", "K");
  for (size_t t = 1; t <= max_t; ++t) std::printf("        T=%zu", t);
  std::printf("\n");
  for (size_t k : pme::bench::KSweep(max_k)) {
    std::printf("%10zu", k);
    std::vector<double> row = {static_cast<double>(k)};
    for (size_t t = 1; t <= max_t; ++t) {
      auto top = pme::knowledge::TopK(by_t[t], k / 2, k - k / 2);
      auto analysis = pme::bench::Unwrap(
          pme::core::AnalyzeWithRules(pipeline, top), "analysis");
      std::printf(" %10.4f", analysis.estimation_accuracy);
      row.push_back(analysis.estimation_accuracy);
    }
    std::printf("\n");
    csv.Row(row);
  }
  std::printf(
      "# shape check: at fixed K the accuracy drop should weaken from T=1 "
      "toward mid T, then strengthen again as T approaches the full QI "
      "width.\n");
  return 0;
}
