// Probing-rate experiment of Figs 4-2/4-3 (§4.1), shared by both benches.
// Kept apart from experiment_config.h, which the sweep tools also include,
// so this figure-only code does not enter their translation units.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/trace_generator.h"
#include "experiment_config.h"
#include "topo/probe_series.h"
#include "topo/probing_eval.h"
#include "util/stats.h"

namespace sh::bench {

/// Candidate probing rates (probes/s) of Figs 4-2/4-3.
inline const std::vector<double>& probing_rates() {
  static const std::vector<double> kRates{0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0};
  return kRates;
}

/// Probing error at one rate, aggregated over traces.
struct ProbingErrorStats {
  util::RunningStats error;   ///< Per-trace mean absolute error.
  util::RunningStats spread;  ///< Per-trace error standard deviation.
};

/// Figs 4-2/4-3 methodology (§4.1): one dense probe stream per 180 s
/// topology trace (20 traces, seeds 700..719), sub-sampled at every
/// candidate rate. Each trace is generated once; every rate's stats receive
/// the traces in seed order, so the means are those of a per-rate loop.
inline std::vector<ProbingErrorStats> probing_error_by_rate(
    bool mobile, const std::vector<double>& rates) {
  std::vector<ProbingErrorStats> stats(rates.size());
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto series = topo::ProbeSeries::from_trace(channel::generate_trace(
        topo_config(mobile, 700 + seed, 180 * kSecond)));
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const auto result = topo::probing_error(series, rates[r]);
      stats[r].error.add(result.mean_abs_error);
      stats[r].spread.add(result.stddev);
    }
  }
  return stats;
}

}  // namespace sh::bench
