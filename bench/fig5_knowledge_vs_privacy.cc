// Reproduces Figure 5: "Positive and negative association rules" —
// estimation accuracy (weighted KL between the MaxEnt posterior and the
// original data) versus the amount of background knowledge K, for three
// bounds: K- (negative rules only), K+ (positive only), and (K+, K-)
// (half each).
//
// Expected shape (paper): all three curves drop steeply for small K and
// flatten as redundancy grows; the mixed (K+, K-) curve drops fastest.
//
// Default: 2,000 records (seconds). --full: 14,210 records / 2,842
// buckets as in the paper.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  const auto scale = pme::bench::ResolveScale(flags, 1000, {"maxattrs", "kmax"});
  const size_t max_attrs = pme::bench::MaxAttrsFlag(flags, scale, 8);

  std::printf("# Figure 5 reproduction: estimation accuracy vs K\n");
  std::printf("# records=%zu full=%d\n", scale.records, scale.full);
  auto pipeline = pme::bench::BuildStandardPipeline(scale, max_attrs);
  size_t pos = 0, neg = 0;
  for (const auto& r : pipeline.rules) (r.positive ? pos : neg) += 1;
  std::printf("# mined rules: %zu positive, %zu negative\n", pos, neg);

  const size_t max_k = pme::bench::KMaxFlag(flags, scale, 150000, pos + neg);
  pme::bench::CsvWriter csv(scale.csv_path,
                           {"k", "acc_neg", "acc_pos", "acc_mixed"});

  std::printf("%10s %14s %14s %14s\n", "K", "K- (neg)", "K+ (pos)",
              "(K+,K-)");
  for (size_t k : pme::bench::KSweep(max_k)) {
    auto run = [&](size_t kp, size_t kn) {
      auto top = pme::knowledge::TopK(pipeline.rules, kp, kn);
      auto analysis = pme::bench::Unwrap(
          pme::core::AnalyzeWithRules(pipeline, top), "analysis");
      return analysis.estimation_accuracy;
    };
    const double acc_neg = run(0, k);
    const double acc_pos = run(k, 0);
    const double acc_mixed = run(k / 2, k - k / 2);
    std::printf("%10zu %14.4f %14.4f %14.4f\n", k, acc_neg, acc_pos,
                acc_mixed);
    csv.Row({static_cast<double>(k), acc_neg, acc_pos, acc_mixed});
  }
  std::printf(
      "# shape check: all curves should fall with K; the mixed bound "
      "should fall fastest.\n");
  return 0;
}
