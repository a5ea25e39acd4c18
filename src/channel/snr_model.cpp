#include "channel/snr_model.h"

#include <cassert>
#include <cmath>

namespace sh::channel {

double delivery_probability(double snr_db, mac::RateIndex rate,
                            int payload_bytes, const SnrModelParams& params) {
  assert(mac::valid_rate(rate));
  assert(payload_bytes > 0);
  // A frame twice as long has twice the symbols exposed to errors; in the
  // logistic-threshold picture that shifts the 50% point up by a small,
  // logarithmic amount (~0.9 dB per doubling).
  const double length_shift_db =
      0.9 * std::log2(static_cast<double>(payload_bytes) /
                      static_cast<double>(params.reference_bytes));
  const double threshold = mac::rate(rate).min_snr_db + length_shift_db;
  const double x = (snr_db - threshold) / params.transition_width_db;
  return 1.0 / (1.0 + util::detmath::dexp(-x));
}

DeliveryModel::DeliveryModel(int payload_bytes, SnrModelParams params)
    : transition_width_db_(params.transition_width_db) {
  assert(payload_bytes > 0);
  // Same expressions as delivery_probability, so each threshold is the very
  // double that function would have computed.
  const double length_shift_db =
      0.9 * std::log2(static_cast<double>(payload_bytes) /
                      static_cast<double>(params.reference_bytes));
  for (mac::RateIndex r = 0; r < mac::kNumRates; ++r) {
    threshold_db_[static_cast<std::size_t>(r)] =
        mac::rate(r).min_snr_db + length_shift_db;
  }
}

void DeliveryModel::probabilities_n(const double* snr_db, std::size_t n,
                                    mac::RateIndex rate, double* out,
                                    double* scratch) const noexcept {
  // Same arithmetic as probability(), element by element: the subtraction,
  // division, and negation are exact-shape identical, dexp's batch form is
  // bit-identical to its scalar form by the detmath contract, and the final
  // division matches.
  const double threshold = threshold_db_[static_cast<std::size_t>(rate)];
  for (std::size_t k = 0; k < n; ++k) {
    scratch[k] = -((snr_db[k] - threshold) / transition_width_db_);
  }
  util::detmath::exp_n(scratch, n, out);
  for (std::size_t k = 0; k < n; ++k) out[k] = 1.0 / (1.0 + out[k]);
}

mac::RateIndex DeliveryModel::best_rate(double snr_db,
                                        double target) const noexcept {
  for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate(); --r) {
    if (probability(snr_db, r) >= target) return r;
  }
  return mac::slowest_rate();
}

mac::RateIndex best_rate_for_snr(double snr_db, double target,
                                 int payload_bytes,
                                 const SnrModelParams& params) {
  // The frame-length shift is rate-independent; DeliveryModel pays its log2
  // once instead of once per rate. Each per-rate probability is still the
  // very double delivery_probability returns (same shift value, same
  // logistic arithmetic) — pinned by
  // SnrModelTest.BestRateMatchesPerRateProbabilities.
  return DeliveryModel(payload_bytes, params).best_rate(snr_db, target);
}

}  // namespace sh::channel
