// Ablation: the adaptive prober's hold time after motion stops. The paper
// keeps probing fast for 1 s after the hint drops so the 10-probe history
// refills with samples from the settled channel. This sweeps the hold.
#include <cstdio>
#include <iostream>
#include <iterator>
#include <vector>

#include "experiment_config.h"
#include "topo/adaptive_prober.h"
#include "topo/probing_eval.h"

using namespace sh;
using namespace sh::bench;

int main() {
  std::printf(
      "=== Ablation: adaptive prober hold-after-stop (mixed 60 s traces) "
      "===\n\n");

  // Each trace is generated once and probed under every hold; every hold's
  // stats receive the traces in seed order.
  const int holds_ms[] = {0, 250, 500, 1000, 2000, 4000};
  struct HoldStats {
    util::RunningStats error, probes;
  };
  std::vector<HoldStats> stats(std::size(holds_ms));
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    channel::TraceGeneratorConfig cfg = topo_config(false, 800 + seed, 0);
    cfg.scenario = sim::MobilityScenario{{
        {15 * kSecond, sim::MotionState::kStatic, 0.0},
        {15 * kSecond, sim::MotionState::kWalking, 1.4},
        {15 * kSecond, sim::MotionState::kStatic, 0.0},
        {15 * kSecond, sim::MotionState::kWalking, 1.4},
    }};
    const auto series =
        topo::ProbeSeries::from_trace(channel::generate_trace(cfg));
    for (std::size_t h = 0; h < stats.size(); ++h) {
      topo::AdaptiveProber::Params params;
      params.hold_after_stop = holds_ms[h] * kMillisecond;
      topo::AdaptiveProber prober(
          [&series](Time t) {
            return series.moving(
                series.index_at(std::max<Time>(0, t - kHintLatency)));
          },
          params);
      const auto schedule = prober.schedule(series.duration());
      stats[h].error.add(topo::series_error(
          topo::estimate_over_schedule(series, schedule)));
      stats[h].probes.add(static_cast<double>(schedule.size()));
    }
  }

  util::Table table({"hold (ms)", "mean abs error", "probes sent"});
  for (std::size_t h = 0; h < stats.size(); ++h) {
    table.add_row({std::to_string(holds_ms[h]),
                   util::fmt(stats[h].error.mean(), 3),
                   util::fmt(stats[h].probes.mean(), 0)});
  }
  table.print(std::cout);

  std::printf(
      "\nExpected: no hold leaves stale mobile samples in the window right "
      "after stopping (error bump at a tiny probe saving); holds near the "
      "paper's 1 s flush the window; much longer holds just burn probes.\n");
  return 0;
}
