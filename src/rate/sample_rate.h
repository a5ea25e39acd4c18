// SampleRate (Bicket, MIT 2005): the static-channel workhorse.
//
// Picks the rate with the lowest average transmission time per successfully
// delivered packet over a sliding history window (10 seconds by default),
// and spends a fraction of packets sampling other rates that could plausibly
// do better. Long history smooths over short-term fading — excellent when
// static, and exactly what goes stale when the device moves (paper §3.5).
//
// The window length is SampleRate's key parameter; the thesis post-processes
// each trace to pick the best value, so the benches sweep `window` and report
// the per-trace best, reproducing that favourable treatment.
#pragma once

#include <array>
#include <deque>

#include "rate/adapter.h"
#include "util/rng.h"

namespace sh::rate {

class SampleRateAdapter final : public RateAdapter {
 public:
  struct Params {
    Duration window = 10 * kSecond;
    int sample_every = 10;          ///< Every Nth packet samples a rate.
    int payload_bytes = 1000;
    int max_consecutive_failures = 4;  ///< Excludes a rate from sampling.
  };

  SampleRateAdapter() : SampleRateAdapter(Params{}, util::Rng{42}) {}
  SampleRateAdapter(Params params, util::Rng rng);

  std::string_view name() const override { return "SampleRate"; }
  void on_packet_start(Time now) override;
  mac::RateIndex pick_rate(Time now) override;
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void reset() override;

  /// Current best rate by average tx time (what a non-sample packet uses).
  mac::RateIndex best_rate(Time now);

  const Params& params() const noexcept { return params_; }

 private:
  /// One attempt in the history window. on_result() times never decrease,
  /// so a single FIFO across all rates is also time-ordered and pruning
  /// pops only expired entries.
  struct Outcome {
    Time when;
    mac::RateIndex rate;
    bool acked;
  };
  struct RateStats {
    std::size_t count = 0;  ///< Attempts at this rate in the window.
    std::size_t successes = 0;
    int consecutive_failures = 0;
  };

  /// Drops outcomes older than the window at `now`. A rate whose window
  /// empties forgets its consecutive failures.
  void prune(Time now);
  /// Average airtime per delivered packet at `r` over the (already pruned)
  /// window; lossless airtime when the rate has no history (optimism drives
  /// initial exploration), +inf when everything in the window failed.
  double avg_tx_time_us(mac::RateIndex r) const;
  RateStats& stats(mac::RateIndex r) {
    return stats_[static_cast<std::size_t>(r)];
  }

  Params params_;
  util::Rng rng_;
  std::array<double, mac::kNumRates> lossless_us_{};  ///< Retry-0 airtime.
  std::deque<Outcome> window_;
  std::array<RateStats, mac::kNumRates> stats_{};
  int packet_counter_ = 0;
  int chain_failures_ = 0;  ///< Failures within the current retry chain.
};

}  // namespace sh::rate
