// Reproduces Figure 7(b): "Running time vs Data Size" — wall-clock
// seconds of the monolithic MaxEnt solve as the number of buckets grows,
// one curve per background-knowledge budget (#Constraints in
// {0, 100, 1000, 10000}).
//
// Expected shape (paper): running time grows roughly linearly with the
// bucket count; larger knowledge budgets shift the curves upward.
//
// Default: up to 400 buckets (2,000 records); --full: up to 2,842
// buckets (14,210 records) as in the paper.

#include <cstdio>

#include "bench/fig7bc_common.h"

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  const auto scale = pme::bench::ResolveScale(flags, 2000, {"maxbuckets"});

  std::printf("# Figure 7(b) reproduction: running time vs #buckets\n");
  std::vector<size_t> buckets, budgets;
  auto cells = pme::bench::RunFig7Grid(flags, scale.full, scale.seed,
                                       &buckets, &budgets);

  pme::bench::CsvWriter csv(scale.csv_path,
                            {"buckets", "constraints", "seconds"});
  std::printf("%10s", "#buckets");
  for (size_t b : budgets) std::printf("   #c=%-7zu", b);
  std::printf("   (seconds per solve)\n");
  size_t i = 0;
  for (size_t nb : buckets) {
    std::printf("%10zu", nb);
    for (size_t b : budgets) {
      (void)b;
      std::printf("   %9.3f ", cells[i].seconds);
      csv.Row({static_cast<double>(cells[i].buckets),
               static_cast<double>(cells[i].constraints), cells[i].seconds});
      ++i;
    }
    std::printf("\n");
  }
  std::printf(
      "# shape check: each column grows ~linearly in #buckets; larger "
      "budgets sit higher.\n");
  return 0;
}
