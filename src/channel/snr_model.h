// SNR -> frame delivery probability model.
//
// Each 802.11a rate has a sensitivity threshold (mac::RateInfo::min_snr_db);
// delivery probability follows a logistic curve around it, which matches the
// steep-but-not-vertical packet-error waterfalls of real OFDM receivers.
// Frame length scales the effective threshold slightly (longer frames need a
// little more margin).
#pragma once

#include <array>
#include <cmath>

#include "mac/rates.h"
#include "util/detmath.h"

namespace sh::channel {

struct SnrModelParams {
  /// Conditional-on-channel-realization PER slope. For a 1000-byte OFDM
  /// frame at a *fixed* channel the error waterfall is close to a step
  /// (~1.5 dB from 10% to 90% loss); the gentle multi-dB curves seen in
  /// field measurements come from fading, which this library models
  /// explicitly in ChannelRealization rather than baking into the PER.
  double transition_width_db = 0.35;
  int reference_bytes = 1000;        ///< Frame size the thresholds assume.
};

/// Probability that a frame of `payload_bytes` at rate `rate` is delivered
/// when the channel SNR is `snr_db`. Monotone in SNR, decreasing in rate
/// index and frame size. Result in [0, 1].
double delivery_probability(double snr_db, mac::RateIndex rate,
                            int payload_bytes = 1000,
                            const SnrModelParams& params = {});

/// The highest rate whose delivery probability at `snr_db` is at least
/// `target` (defaults to 90%), or the slowest rate if none qualifies.
/// This is the "SNR-to-bit-rate mapping" that RBAR and CHARM use.
mac::RateIndex best_rate_for_snr(double snr_db, double target = 0.9,
                                 int payload_bytes = 1000,
                                 const SnrModelParams& params = {});

/// Per-rate delivery thresholds precomputed for one (payload, params) pair.
/// probability(snr, r) is bit-identical to delivery_probability(snr, r,
/// payload, params) — the threshold doubles come from the same expressions
/// and the logistic arithmetic is unchanged — but the frame-length log2,
/// constant across a trace, is paid once instead of once per slot per rate.
class DeliveryModel {
 public:
  explicit DeliveryModel(int payload_bytes = 1000, SnrModelParams params = {});

  double probability(double snr_db, mac::RateIndex rate) const noexcept {
    // util::detmath::dexp rather than std::exp so the batched form
    // (probabilities_n) is bit-identical to this per-slot call.
    const double x = (snr_db - threshold_db_[static_cast<std::size_t>(rate)]) /
                     transition_width_db_;
    return 1.0 / (1.0 + util::detmath::dexp(-x));
  }

  /// The highest rate whose probability(snr_db, rate) is at least
  /// `target`, or the slowest rate if none qualifies: best_rate_for_snr
  /// with this model's payload and parameters.
  mac::RateIndex best_rate(double snr_db, double target) const noexcept;

  /// Block form: out[k] is bit-identical to probability(snr_db[k], rate).
  /// `scratch` must hold at least n doubles.
  void probabilities_n(const double* snr_db, std::size_t n,
                       mac::RateIndex rate, double* out,
                       double* scratch) const noexcept;

 private:
  std::array<double, mac::kNumRates> threshold_db_{};
  double transition_width_db_;
};

}  // namespace sh::channel
