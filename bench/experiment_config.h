// Shared experiment configuration for the reproduction benches.
//
// All constants here were calibrated once (see DESIGN.md) and are shared by
// every bench so the table and figure reproductions stay mutually
// consistent. Seeds are fixed: every number printed by a bench is exactly
// reproducible.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "channel/trace_generator.h"
#include "exp/sweep.h"
#include "fault/fault_plan.h"
#include "fault/movement_feed.h"
#include "rate/hint_aware.h"
#include "rate/rapid_sample.h"
#include "rate/rraa.h"
#include "rate/sample_rate.h"
#include "rate/snr_adapters.h"
#include "rate/trace_runner.h"
#include "util/stats.h"
#include "util/table.h"

namespace sh::bench {

/// The three indoor/outdoor environments of Figs 3-5/3-6/3-7.
inline const std::vector<channel::Environment>& walking_environments() {
  static const std::vector<channel::Environment> kEnvs{
      channel::Environment::kOffice, channel::Environment::kHallway,
      channel::Environment::kOutdoor};
  return kEnvs;
}

/// Traces per (environment, scenario) point; the paper collected 10-20.
inline constexpr int kTracesPerPoint = 16;

/// Per-trace placement offset: repetitions of an experiment re-place the
/// devices, shifting the mean SNR a little.
inline double placement_offset_db(int trace_index) {
  return static_cast<double>(trace_index % 5) - 2.0;
}

/// Hint latency for the hint-aware protocol when driven from ground truth:
/// detector latency (<100 ms, Chapter 2) plus one frame exchange.
inline constexpr Duration kHintLatency = 150 * kMillisecond;

/// Chapter 4 topology-maintenance link: a marginal long link probed at
/// 6 Mbit/s whose delivery swings with body shadowing (paper Fig 4-1).
inline channel::TraceGeneratorConfig topo_config(bool mobile,
                                                 std::uint64_t seed,
                                                 Duration duration) {
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = mobile ? sim::MobilityScenario::all_walking(duration)
                        : sim::MobilityScenario::all_static(duration);
  cfg.seed = seed;
  cfg.snr_offset_db = -2.0;
  cfg.shadow_sigma_scale = 2.6;
  cfg.shadow_clock = channel::DopplerClock::Config{0.01, 0.8, 0.9};
  return cfg;
}

/// Runs SampleRate with the paper's favourable treatment: the averaging
/// window is chosen per trace, post facto (§3.4 states this bias openly).
inline double best_samplerate_mbps(const channel::PacketFateTrace& trace,
                                   const rate::RunConfig& run) {
  double best = 0.0;
  for (const double window_s : {2.0, 5.0, 10.0}) {
    rate::SampleRateAdapter::Params params;
    params.window = seconds(window_s);
    rate::SampleRateAdapter adapter(params, util::Rng(42));
    best = std::max(best, rate::run_trace(adapter, trace, run).throughput_mbps);
  }
  return best;
}

/// Ground-truth-driven movement query with realistic hint latency.
inline rate::HintAwareRateAdapter::MovingQuery lagged_truth_query(
    const channel::PacketFateTrace& trace, Duration latency = kHintLatency) {
  return [&trace, latency](Time t) {
    return trace.moving(std::max<Time>(0, t - latency));
  };
}

/// Ground truth pushed through a faulty hint pipeline (fault::MovementFeed):
/// updates every 100 ms with `latency`, subject to the plan's hint faults,
/// answering nullopt once nothing fresh has survived for `max_age`. The
/// query carries per-trace state, so build one per adapter.
inline rate::HintAwareRateAdapter::HintQuery faulty_truth_query(
    const channel::PacketFateTrace& trace, const fault::FaultConfig& config,
    std::uint64_t fault_seed, Duration max_age = 2 * kSecond,
    Duration latency = kHintLatency) {
  fault::MovementFeed::Params params;
  params.latency = latency;
  params.max_age = max_age;
  auto feed = std::make_shared<fault::MovementFeed>(
      [&trace](Time t) { return trace.moving(t); },
      fault::FaultPlan(config, fault_seed), params);
  return rate::HintAwareRateAdapter::HintQuery{
      [feed](Time t) { return feed->query(t); }};
}

/// One trace's throughput (Mbit/s) under each of the six protocols.
struct ProtocolThroughput {
  double hint = 0.0, rapid = 0.0, sample = 0.0, rraa = 0.0, rbar = 0.0,
         charm = 0.0;
};

/// The six-protocol replay, in one fixed order. Only the hint-aware
/// adapter sees `hint_query` — a MovingQuery, or a (possibly faulty,
/// possibly nullopt-answering) HintQuery; faults live in the hint path, not
/// the channel, so the baselines are untouched and the gap to `sample` is
/// exactly the cost of degraded hints.
template <typename Query>
ProtocolThroughput replay_protocols(const channel::PacketFateTrace& trace,
                                    const rate::RunConfig& run,
                                    Query hint_query) {
  ProtocolThroughput out;
  rate::HintAwareRateAdapter hint(std::move(hint_query), util::Rng(42));
  out.hint = rate::run_trace(hint, trace, run).throughput_mbps;
  rate::RapidSample rapid;
  out.rapid = rate::run_trace(rapid, trace, run).throughput_mbps;
  out.sample = best_samplerate_mbps(trace, run);
  rate::Rraa rraa;
  out.rraa = rate::run_trace(rraa, trace, run).throughput_mbps;
  rate::Rbar rbar;
  out.rbar = rate::run_trace(rbar, trace, run).throughput_mbps;
  rate::Charm charm;
  out.charm = rate::run_trace(charm, trace, run).throughput_mbps;
  return out;
}

/// Mean throughput of each protocol over a batch of traces.
struct ProtocolMeans {
  util::RunningStats hint, rapid, sample, rraa, rbar, charm;
};

inline void run_all_protocols(const channel::PacketFateTrace& trace,
                              const rate::RunConfig& run, ProtocolMeans& out) {
  const auto t = replay_protocols(trace, run, lagged_truth_query(trace));
  out.hint.add(t.hint);
  out.rapid.add(t.rapid);
  out.sample.add(t.sample);
  out.rraa.add(t.rraa);
  out.rbar.add(t.rbar);
  out.charm.add(t.charm);
}

/// One repetition's throughput of every protocol, as sweep-engine metrics
/// (the same replay run_all_protocols aggregates, so a ported bench sees
/// the exact numbers its serial version printed).
inline exp::MetricSample protocol_metrics(const ProtocolThroughput& t) {
  exp::MetricSample sample;
  sample.set("hint_mbps", t.hint);
  sample.set("rapid_mbps", t.rapid);
  sample.set("sample_mbps", t.sample);
  sample.set("rraa_mbps", t.rraa);
  sample.set("rbar_mbps", t.rbar);
  sample.set("charm_mbps", t.charm);
  return sample;
}

inline exp::MetricSample protocol_metrics(const channel::PacketFateTrace& trace,
                                          const rate::RunConfig& run) {
  return protocol_metrics(
      replay_protocols(trace, run, lagged_truth_query(trace)));
}

/// protocol_metrics with the hint adapter driven by an explicit hint query.
inline exp::MetricSample protocol_metrics(
    const channel::PacketFateTrace& trace, const rate::RunConfig& run,
    rate::HintAwareRateAdapter::HintQuery hint_query) {
  return protocol_metrics(
      replay_protocols(trace, run, std::move(hint_query)));
}

}  // namespace sh::bench
