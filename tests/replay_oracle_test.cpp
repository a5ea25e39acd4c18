// Differential tests for the replay hot path against its reference
// definitions: SampleRate's single time-ordered window against the
// per-rate-deque SampleRate (tests/reference_sample_rate.h), the airtime
// table against mac::attempt_duration, and RBAR/CHARM's precomputed
// delivery model against channel::best_rate_for_snr.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "channel/snr_model.h"
#include "mac/airtime.h"
#include "rate/sample_rate.h"
#include "rate/snr_adapters.h"
#include "rate/trace_runner.h"
#include "reference_sample_rate.h"
#include "util/rng.h"

namespace sh::rate {
namespace {

// ---------------------------------------------------------------------------
// SampleRate: single FIFO window == per-rate deques

/// What the drive loop exercised, so a test can require that the hard
/// cases actually happened rather than merely passed vacuously.
struct Coverage {
  std::uint64_t decisions = 0;
  std::uint64_t fade_attempts = 0;  ///< Attempts inside a deep fade.
  std::uint64_t gaps = 0;
  std::uint64_t resets = 0;
  std::uint64_t bare_results = 0;  ///< on_result without a preceding pick.
  std::array<std::uint64_t, mac::kNumRates> picked{};
};

/// Per-rate delivery probability of the simulated channel: a good regime
/// where slow rates nearly always work, and a deep fade where every rate
/// fails long enough to hit max_consecutive_failures.
bool channel_delivers(util::Rng& script, bool fade, mac::RateIndex r) {
  if (fade) return script.bernoulli(0.02);
  static constexpr std::array<double, mac::kNumRates> kGood = {
      0.99, 0.97, 0.95, 0.9, 0.8, 0.6, 0.35, 0.15};
  return script.bernoulli(kGood[static_cast<std::size_t>(r)]);
}

/// Drives the FIFO SampleRate and the reference with one seeded event
/// stream and requires every pick_rate()/best_rate() to agree. Time never
/// decreases (the adapter contract); everything else is random: packet
/// retry chains, fades, gaps longer than the window, direct on_result()
/// calls with no pick before them, and reset() mid-stream.
Coverage drive(Duration window, std::uint64_t seed, int events) {
  SampleRateAdapter::Params params;
  params.window = window;
  reference::SampleRateAdapter::Params ref_params;
  ref_params.window = window;
  SampleRateAdapter fifo(params, util::Rng(seed));
  reference::SampleRateAdapter ref(ref_params, util::Rng(seed));

  util::Rng script(seed ^ 0xD1CEULL);
  Coverage cov;
  Time t = 0;
  bool fade = false;
  for (int e = 0; e < events; ++e) {
    const double u = script.uniform();
    if (u < 0.002) {
      t += window + script.uniform_int(1, 3 * window);
      ++cov.gaps;
      continue;
    }
    if (u < 0.003) {
      fifo.reset();
      ref.reset();
      ++cov.resets;
      continue;
    }
    if (u < 0.01) {
      fade = !fade;
      continue;
    }
    if (u < 0.03) {
      const auto r = static_cast<mac::RateIndex>(
          script.uniform_int(mac::slowest_rate(), mac::fastest_rate()));
      const bool acked = channel_delivers(script, fade, r);
      fifo.on_result(t, r, acked);
      ref.on_result(t, r, acked);
      ++cov.bare_results;
      t += script.uniform_int(0, 2000);
      continue;
    }
    if (u < 0.06) {
      const mac::RateIndex expected = ref.best_rate(t);
      EXPECT_EQ(fifo.best_rate(t), expected) << "best_rate at t=" << t;
      ++cov.decisions;
      continue;
    }
    // One packet: a link-layer retry chain, same shape as run_trace.
    fifo.on_packet_start(t);
    ref.on_packet_start(t);
    for (int retry = 0; retry <= RunConfig{}.link_retries; ++retry) {
      const mac::RateIndex expected = ref.pick_rate(t);
      const mac::RateIndex got = fifo.pick_rate(t);
      EXPECT_EQ(got, expected) << "pick_rate at t=" << t << " event " << e;
      if (got != expected) return cov;
      ++cov.decisions;
      ++cov.picked[static_cast<std::size_t>(got)];
      if (fade) ++cov.fade_attempts;
      const bool acked = channel_delivers(script, fade, got);
      fifo.on_result(t, got, acked);
      ref.on_result(t, got, acked);
      t += script.uniform_int(200, 1500);
      if (acked) break;
    }
  }
  return cov;
}

class SampleRateWindowOracle : public ::testing::TestWithParam<Duration> {};

TEST_P(SampleRateWindowOracle, DecisionsMatchPerRateDeques) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 0xBEEFULL}) {
    const Coverage cov = drive(GetParam(), seed, 60'000);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
    EXPECT_GT(cov.decisions, 50'000U);
    EXPECT_GT(cov.gaps, 0U);
    EXPECT_GT(cov.resets, 0U);
    EXPECT_GT(cov.bare_results, 0U);
    EXPECT_GT(cov.fade_attempts, 1000U);
    for (const auto n : cov.picked) EXPECT_GT(n, 0U) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SampleRateWindowOracle,
                         ::testing::Values(2 * kSecond, 5 * kSecond,
                                           10 * kSecond));

/// A failure run long enough to lock rates out of sampling, then a gap
/// past the window: both implementations must forget the failures at the
/// same moment and descend the ladder the same way.
TEST(SampleRateWindowOracleTest, FailureLockClearsWhenWindowEmpties) {
  SampleRateAdapter::Params params;
  params.window = kSecond;
  reference::SampleRateAdapter::Params ref_params;
  ref_params.window = kSecond;
  SampleRateAdapter fifo(params, util::Rng(5));
  reference::SampleRateAdapter ref(ref_params, util::Rng(5));
  Time t = 0;
  for (int i = 0; i < 40; ++i) {
    fifo.on_packet_start(t);
    ref.on_packet_start(t);
    const auto r = ref.pick_rate(t);
    ASSERT_EQ(fifo.pick_rate(t), r) << "packet " << i;
    fifo.on_result(t, r, false);
    ref.on_result(t, r, false);
    t += 1000;
  }
  // Every rate above the slowest is failure-locked: the ladder bottoms out.
  EXPECT_EQ(ref.best_rate(t), mac::slowest_rate());
  EXPECT_EQ(fifo.best_rate(t), mac::slowest_rate());
  t += 2 * kSecond;
  EXPECT_EQ(ref.best_rate(t), mac::fastest_rate());
  EXPECT_EQ(fifo.best_rate(t), mac::fastest_rate());
}

/// Only a pick forgets an expired failure run: a rate whose old failures
/// expired while results (but no pick) arrived keeps counting from them
/// when it fails again, and stays failure-locked for the ladder.
TEST(SampleRateWindowOracleTest, ResultsWithoutPicksKeepExpiredFailureRun) {
  SampleRateAdapter::Params params;
  params.window = kSecond;
  reference::SampleRateAdapter::Params ref_params;
  ref_params.window = kSecond;
  SampleRateAdapter fifo(params, util::Rng(6));
  reference::SampleRateAdapter ref(ref_params, util::Rng(6));
  for (int i = 0; i < params.max_consecutive_failures; ++i) {
    fifo.on_result(0, mac::fastest_rate(), false);
    ref.on_result(0, mac::fastest_rate(), false);
  }
  // Another rate's result lands after the fastest rate's run expired...
  fifo.on_result(3 * kSecond / 2, 2, false);
  ref.on_result(3 * kSecond / 2, 2, false);
  // ...and the fastest rate fails once more before any pick.
  fifo.on_result(8 * kSecond / 5, mac::fastest_rate(), false);
  ref.on_result(8 * kSecond / 5, mac::fastest_rate(), false);
  const Time now = 17 * kSecond / 10;
  EXPECT_EQ(ref.best_rate(now), mac::fastest_rate() - 1);
  EXPECT_EQ(fifo.best_rate(now), mac::fastest_rate() - 1);
}

// ---------------------------------------------------------------------------
// Airtime table == attempt_duration

TEST(AirtimeTableTest, MatchesAttemptDuration) {
  const int link_retries = RunConfig{}.link_retries;
  for (const int payload : {0, 1000, 1500}) {
    const mac::AirtimeTable table(payload, link_retries);
    EXPECT_EQ(table.max_retry(), link_retries);
    for (int retry = 0; retry <= link_retries; ++retry) {
      for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate();
           ++r) {
        EXPECT_EQ(table.attempt(r, retry),
                  mac::attempt_duration(r, payload, retry))
            << "payload " << payload << " retry " << retry << " rate " << r;
      }
    }
  }
}

TEST(AirtimeTableTest, DefaultCoversFirstAttemptOnly) {
  const mac::AirtimeTable table(1000);
  EXPECT_EQ(table.max_retry(), 0);
  EXPECT_EQ(table.attempt(mac::fastest_rate()),
            mac::attempt_duration(mac::fastest_rate(), 1000));
}

// ---------------------------------------------------------------------------
// RBAR/CHARM picks == best_rate_for_snr

/// SNR inputs with the repetition pattern replay produces (runs of one
/// slot's value) interleaved with fresh values across the whole map, and a
/// reset() now and then after which the same value arrives again.
TEST(SnrAdapterTest, PicksMatchBestRateForSnr) {
  util::Rng rng(17);
  Rbar rbar;
  Charm charm;
  const Rbar::Params rbar_params{};
  const Charm::Params charm_params{};
  Time t = 0;
  double snr = 10.0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.bernoulli(0.1)) snr = rng.uniform(-5.0, 40.0);
    if (i % 5'000 == 4'999) {
      rbar.reset();
      charm.reset();
      ASSERT_EQ(rbar.pick_rate(t), mac::slowest_rate());
      ASSERT_EQ(charm.pick_rate(t), mac::slowest_rate());
    }
    rbar.on_snr(t, snr);
    charm.on_snr(t, snr);
    for (int retry = 0; retry < 3; ++retry) {
      ASSERT_EQ(rbar.pick_rate(t),
                channel::best_rate_for_snr(
                    snr + rbar_params.calibration_bias_db,
                    rbar_params.target_delivery, rbar_params.payload_bytes));
      const mac::RateIndex charm_rate = charm.pick_rate(t);
      ASSERT_EQ(charm_rate,
                channel::best_rate_for_snr(
                    charm.mean_snr_db() + charm_params.calibration_bias_db,
                    charm_params.target_delivery, charm_params.payload_bytes));
      t += 300;
    }
  }
}

}  // namespace
}  // namespace sh::rate
