// Reproduces Figure 7(c): "Iterations vs Data Size" — LBFGS iteration
// count of the monolithic MaxEnt solve as the number of buckets grows,
// one curve per background-knowledge budget.
//
// Expected shape (paper): iteration counts stay nearly flat in the
// bucket count (the per-iteration cost, not the iteration count, drives
// Figure 7(b)'s growth).
//
// Default: up to 400 buckets; --full: up to 2,842.

#include <cstdio>

#include "bench/fig7bc_common.h"

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  const auto scale = pme::bench::ResolveScale(flags, 2000, {"maxbuckets"});

  std::printf("# Figure 7(c) reproduction: iterations vs #buckets\n");
  std::vector<size_t> buckets, budgets;
  auto cells = pme::bench::RunFig7Grid(flags, scale.full, scale.seed,
                                       &buckets, &budgets);

  pme::bench::CsvWriter csv(scale.csv_path,
                            {"buckets", "constraints", "iterations"});
  std::printf("%10s", "#buckets");
  for (size_t b : budgets) std::printf("   #c=%-7zu", b);
  std::printf("   (solver iterations)\n");
  size_t i = 0;
  for (size_t nb : buckets) {
    std::printf("%10zu", nb);
    for (size_t b : budgets) {
      (void)b;
      std::printf("   %9zu ", cells[i].iterations);
      csv.Row({static_cast<double>(cells[i].buckets),
               static_cast<double>(cells[i].constraints),
               static_cast<double>(cells[i].iterations)});
      ++i;
    }
    std::printf("\n");
  }
  std::printf(
      "# shape check: iteration counts stay nearly constant as buckets "
      "grow; knowledge budget moves them more than data size does.\n");
  return 0;
}
