// The `kernel` tier: everything that pins the block trace-generation kernel
// (DESIGN.md "Block trace kernel") to its scalar reference.
//
//  * differential — generate_trace_block must be bit-identical to
//    generate_trace_scalar: every true-SNR double compared with ==, plus an
//    FNV-1a hash of the serialized trace, across all environments x
//    static/mobile/vehicular, odd block sizes, and trace lengths straddling
//    block boundaries (0 / 1 / block-1 / block+1 slots).
//  * property — >= 100 randomized mobility layouts (phase edges landing
//    mid-block on purpose): BlockSampler::sample_n must equal
//    Cursor::snr_db_at / moving_at bit-exactly for every slot midpoint.
//  * detmath — scalar call == batch call for every kernel the block path
//    uses, including the n = 1 degenerate batch.
//  * snr model — best_rate_for_snr's hoisted frame-length shift must agree
//    with per-rate delivery_probability, and DeliveryModel (scalar and
//    batched) must reproduce delivery_probability bit-exactly.
//
// CI runs this tier under ASan/UBSan and TSan (`ctest -L
// 'unit|fault|vanet|kernel'`).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "channel/snr_model.h"
#include "channel/trace_generator.h"
#include "sim/mobility.h"
#include "util/detmath.h"
#include "util/rng.h"

namespace sh::channel {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string serialized(const PacketFateTrace& trace) {
  std::ostringstream os;
  trace.save(os);
  return os.str();
}

constexpr Environment kAllEnvironments[] = {
    Environment::kOffice, Environment::kHallway, Environment::kOutdoor,
    Environment::kVehicular};

const char* env_name(Environment env) {
  switch (env) {
    case Environment::kOffice: return "office";
    case Environment::kHallway: return "hallway";
    case Environment::kOutdoor: return "outdoor";
    case Environment::kVehicular: return "vehicular";
  }
  return "?";
}

enum class Mobility { kStatic, kMobile, kVehicular };

TraceGeneratorConfig kernel_config(Environment env, Mobility mob,
                                   Duration total, std::uint64_t seed = 77) {
  TraceGeneratorConfig cfg;
  cfg.env = env;
  switch (mob) {
    case Mobility::kStatic:
      cfg.scenario = sim::MobilityScenario::all_static(total);
      break;
    case Mobility::kMobile:
      cfg.scenario = sim::MobilityScenario::all_walking(total);
      break;
    case Mobility::kVehicular:
      cfg.scenario = sim::MobilityScenario::all_vehicle(total);
      break;
  }
  cfg.seed = seed;
  return cfg;
}

/// The differential core: block kernel vs scalar reference for one config
/// and block size. Every true-SNR double must be the same bits (EXPECT_EQ
/// on doubles is exact), and the serialized traces must hash identically.
void expect_block_matches_scalar(const TraceGeneratorConfig& cfg,
                                 std::size_t block_slots,
                                 const std::string& what) {
  std::vector<double> scalar_snr;
  std::vector<double> block_snr;
  const auto scalar = generate_trace_scalar(cfg, &scalar_snr);
  const auto block = generate_trace_block(cfg, block_slots, &block_snr);
  ASSERT_EQ(scalar.size(), block.size()) << what;
  ASSERT_EQ(scalar_snr.size(), block_snr.size()) << what;
  for (std::size_t i = 0; i < scalar_snr.size(); ++i) {
    ASSERT_EQ(scalar_snr[i], block_snr[i])
        << what << ": true-SNR double diverges at slot " << i;
  }
  EXPECT_EQ(fnv1a(serialized(scalar)), fnv1a(serialized(block)))
      << what << ": serialized trace hash diverges";
}

// ---------------------------------------------------------------------------
// Differential: block == scalar, bit for bit.

TEST(TraceKernelDifferentialTest, AllEnvironmentsAndMobilities) {
  for (const Environment env : kAllEnvironments) {
    for (const Mobility mob :
         {Mobility::kStatic, Mobility::kMobile, Mobility::kVehicular}) {
      const auto cfg = kernel_config(env, mob, 4 * kSecond);
      expect_block_matches_scalar(
          cfg, kDefaultTraceBlockSlots,
          std::string(env_name(env)) + "/" +
              std::to_string(static_cast<int>(mob)));
    }
  }
}

TEST(TraceKernelDifferentialTest, BlockSizeCannotChangeOutput) {
  // Mixed scenario so phase edges land mid-block for every size, plus
  // vehicular for the distance-checkpoint walk.
  for (const std::size_t block_slots : {std::size_t{1}, std::size_t{7},
                                        std::size_t{256}, std::size_t{4093}}) {
    auto cfg = kernel_config(Environment::kOffice, Mobility::kStatic,
                             3 * kSecond);
    cfg.scenario = sim::MobilityScenario::static_then_walking(3 * kSecond);
    expect_block_matches_scalar(cfg, block_slots,
                                "office/mixed block=" +
                                    std::to_string(block_slots));
    const auto veh = kernel_config(Environment::kVehicular,
                                   Mobility::kVehicular, 3 * kSecond);
    expect_block_matches_scalar(
        veh, block_slots, "vehicular block=" + std::to_string(block_slots));
  }
}

TEST(TraceKernelDifferentialTest, TraceLengthEdges) {
  // Slot counts straddling the default block boundary: 0 (duration shorter
  // than one slot), 1, block-1, block+1. A trailing partial slot is
  // truncated by contract, so length is floor(total / slot).
  const Duration slot = 5 * kMillisecond;
  const std::size_t b = kDefaultTraceBlockSlots;
  for (const std::size_t slots : {std::size_t{0}, std::size_t{1}, b - 1,
                                  b + 1}) {
    const Duration total =
        slots == 0 ? 2 * kMillisecond
                   : static_cast<Duration>(slots) * slot + 2 * kMillisecond;
    const auto cfg =
        kernel_config(Environment::kOffice, Mobility::kMobile, total);
    std::vector<double> snr;
    const auto trace = generate_trace_block(cfg, b, &snr);
    ASSERT_EQ(trace.size(), slots);
    ASSERT_EQ(snr.size(), slots);
    expect_block_matches_scalar(cfg, b, "len=" + std::to_string(slots));
  }
}

TEST(TraceKernelDifferentialTest, DefaultGenerateTraceIsTheBlockKernel) {
  // generate_trace must be the block kernel at the default size — and
  // therefore, transitively, bit-identical to the scalar reference. This is
  // the test that lets the golden pins stay untouched while the kernel
  // underneath them changed.
  const auto cfg = kernel_config(Environment::kOffice, Mobility::kMobile,
                                 4 * kSecond, 12345);
  EXPECT_EQ(serialized(generate_trace(cfg)),
            serialized(generate_trace_block(cfg, kDefaultTraceBlockSlots)));
  EXPECT_EQ(serialized(generate_trace(cfg)),
            serialized(generate_trace_scalar(cfg)));
}

// ---------------------------------------------------------------------------
// Property: randomized mobility layouts, BlockSampler == Cursor bit-exactly.

TEST(TraceKernelPropertyTest, RandomSegmentLayoutsMatchCursorBitExactly) {
  // 100+ randomized layouts. Phase durations are drawn in raw microseconds
  // (not slot multiples), so phase, Doppler, shadow, and checkpoint edges
  // land mid-slot and mid-block — the worst case for the span-slicing walk.
  util::Rng rng(0xB10CC0DEULL);
  constexpr int kLayouts = 120;
  for (int layout = 0; layout < kLayouts; ++layout) {
    const auto env = kAllEnvironments[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    const int num_phases = static_cast<int>(rng.uniform_int(1, 6));
    std::vector<sim::MobilityPhase> phases;
    phases.reserve(static_cast<std::size_t>(num_phases));
    for (int p = 0; p < num_phases; ++p) {
      sim::MobilityPhase phase;
      phase.duration = rng.uniform_int(1, 900 * kMillisecond);
      const int state = static_cast<int>(rng.uniform_int(0, 2));
      phase.state = static_cast<sim::MotionState>(state);
      phase.speed_mps = phase.state == sim::MotionState::kStatic
                            ? 0.0
                            : rng.uniform(0.5, 20.0);
      phases.push_back(phase);
    }
    const ChannelRealization channel(env, sim::MobilityScenario(phases),
                                     rng(), DriveByGeometry{},
                                     rng.uniform(-3.0, 3.0));
    ChannelRealization::Cursor cursor(channel);
    ChannelRealization::BlockSampler sampler(channel);

    const Duration slot = 5 * kMillisecond;
    const auto n = static_cast<std::size_t>(
        channel.scenario().total_duration() / slot);
    if (n == 0) continue;
    std::vector<Time> mid(n);
    std::vector<double> snr(n);
    std::vector<unsigned char> moving(n);  // bool storage ASan can index.
    for (std::size_t k = 0; k < n; ++k) {
      mid[k] = static_cast<Time>(k) * slot + slot / 2;
    }
    sampler.sample_n(mid.data(), n,  snr.data(),
                     reinterpret_cast<bool*>(moving.data()));
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(cursor.snr_db_at(mid[k]), snr[k])
          << "layout " << layout << " env " << env_name(env) << " slot " << k;
      ASSERT_EQ(cursor.moving_at(mid[k]), moving[k] != 0)
          << "layout " << layout << " slot " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// detmath: scalar == batch for every kernel the block path leans on.

TEST(DetmathConsistencyTest, BatchFormsMatchScalarBitExactly) {
  util::Rng rng(0xDE7E57ULL);
  constexpr std::size_t kN = 4096;
  std::vector<double> x(kN), s_batch(kN), c_batch(kN), e_batch(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Mix in-range, out-of-range (libm fallback), and sign-edge inputs so
    // both the fast loop and the guarded per-element loop are exercised.
    switch (i % 5) {
      case 0: x[i] = rng.uniform(-100.0, 100.0); break;
      case 1: x[i] = rng.uniform(-1e8, 1e8); break;  // beyond kTrigBound
      case 2: x[i] = rng.uniform(-700.0, 700.0); break;
      case 3: x[i] = rng.uniform(-1e-12, 1e-12); break;
      default: x[i] = (i % 2 == 0) ? 0.0 : -0.0; break;
    }
  }
  util::detmath::sin_n(x.data(), kN, s_batch.data());
  util::detmath::cos_n(x.data(), kN, c_batch.data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(util::detmath::dsin(x[i]), s_batch[i]) << "x=" << x[i];
    ASSERT_EQ(util::detmath::dcos(x[i]), c_batch[i]) << "x=" << x[i];
    double si = 0.0, ci = 0.0;
    util::detmath::dsincos(x[i], si, ci);
    ASSERT_EQ(si, s_batch[i]);
    ASSERT_EQ(ci, c_batch[i]);
  }
  std::vector<double> xe(kN);
  for (std::size_t i = 0; i < kN; ++i) xe[i] = rng.uniform(-750.0, 750.0);
  util::detmath::exp_n(xe.data(), kN, e_batch.data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(util::detmath::dexp(xe[i]), e_batch[i]) << "x=" << xe[i];
  }
}

TEST(DetmathConsistencyTest, AccumulatorsMatchSingleSlotForm) {
  // fade_path_accumulate_n / sinusoid_accumulate_n with n = 1 must equal
  // the batched call element-wise — that identity is exactly why the scalar
  // gain_db/offset_db paths and the block kernel agree.
  util::Rng rng(0xACC5ULL);
  constexpr std::size_t kN = 513;
  std::vector<double> tau(kN);
  for (std::size_t i = 0; i < kN; ++i) tau[i] = rng.uniform(0.0, 50.0);
  const double omega = rng.uniform(0.1, 60.0);
  const double pi = rng.uniform(0.0, 6.28);
  const double pq = pi + 1.5707963267948966;
  std::vector<double> gi_b(kN, 0.25), gq_b(kN, -0.5);
  std::vector<double> gi_s(kN, 0.25), gq_s(kN, -0.5);
  util::detmath::fade_path_accumulate_n(tau.data(), kN, omega, pi, pq,
                                        gi_b.data(), gq_b.data());
  for (std::size_t i = 0; i < kN; ++i) {
    util::detmath::fade_path_accumulate_n(&tau[i], 1, omega, pi, pq, &gi_s[i],
                                          &gq_s[i]);
    ASSERT_EQ(gi_s[i], gi_b[i]) << "tau=" << tau[i];
    ASSERT_EQ(gq_s[i], gq_b[i]) << "tau=" << tau[i];
  }
  std::vector<double> acc_b(kN, 1.0), acc_s(kN, 1.0);
  util::detmath::sinusoid_accumulate_n(tau.data(), kN, 2.5, omega, pi,
                                       acc_b.data());
  for (std::size_t i = 0; i < kN; ++i) {
    util::detmath::sinusoid_accumulate_n(&tau[i], 1, 2.5, omega, pi,
                                         &acc_s[i]);
    ASSERT_EQ(acc_s[i], acc_b[i]) << "x=" << tau[i];
  }
}

// ---------------------------------------------------------------------------
// SNR model: the hoisted length shift and the batched delivery model.

TEST(SnrModelTest, BestRateMatchesPerRateProbabilities) {
  // Pin for the best_rate_for_snr refactor (the frame-length log2 is now
  // hoisted out of the rate loop): the selected rate must still be exactly
  // "highest rate whose delivery_probability >= target, else slowest", with
  // the probabilities taken from delivery_probability itself.
  for (const int payload : {200, 1000, 1500}) {
    for (const double target : {0.5, 0.9}) {
      for (double snr = -5.0; snr <= 40.0; snr += 0.25) {
        mac::RateIndex expected = mac::slowest_rate();
        for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate();
             --r) {
          if (delivery_probability(snr, r, payload) >= target) {
            expected = r;
            break;
          }
        }
        ASSERT_EQ(best_rate_for_snr(snr, target, payload), expected)
            << "snr=" << snr << " payload=" << payload << " target=" << target;
      }
    }
  }
}

TEST(SnrModelTest, DeliveryModelMatchesScalarBitExactly) {
  for (const int payload : {200, 1000, 1500}) {
    const DeliveryModel model(payload);
    std::vector<double> snr;
    for (double v = -10.0; v <= 45.0; v += 0.125) snr.push_back(v);
    std::vector<double> probs(snr.size()), scratch(snr.size());
    for (mac::RateIndex r = 0; r < mac::kNumRates; ++r) {
      model.probabilities_n(snr.data(), snr.size(), r, probs.data(),
                            scratch.data());
      for (std::size_t i = 0; i < snr.size(); ++i) {
        ASSERT_EQ(model.probability(snr[i], r), probs[i])
            << "snr=" << snr[i] << " rate=" << static_cast<int>(r);
        ASSERT_EQ(delivery_probability(snr[i], r, payload), probs[i])
            << "snr=" << snr[i] << " rate=" << static_cast<int>(r);
      }
    }
  }
}

}  // namespace
}  // namespace sh::channel
