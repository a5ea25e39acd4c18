// Figure 4-2: average error in the delivery-probability estimate versus
// probing rate, static case. Paper: even 1 probe every 10 seconds keeps the
// error near 11%; 0.5 probes/s reaches ~5%.
#include <cstdio>
#include <iostream>

#include "probing_experiment.h"

using namespace sh;
using namespace sh::bench;

int main() {
  std::printf(
      "=== Figure 4-2: estimation error vs probing rate (static) ===\n"
      "(20 x 180 s stationary traces; 10-probe windows; error vs the dense "
      "200/s ground truth)\n\n");

  const auto& rates = probing_rates();
  const auto stats = probing_error_by_rate(false, rates);
  util::Table table({"probes/s", "mean abs error", "stddev"});
  for (std::size_t r = 0; r < rates.size(); ++r) {
    table.add_row({util::fmt(rates[r], 1), util::fmt(stats[r].error.mean(), 3),
                   util::fmt(stats[r].spread.mean(), 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nPaper: ~11%% error at 0.1 probes/s, ~5%% at 0.5 probes/s — the "
      "default 1 probe/s of many mesh stacks is overkill when static.\n");
  return 0;
}
