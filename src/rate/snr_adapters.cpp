#include "rate/snr_adapters.h"

#include <cassert>

namespace sh::rate {

Rbar::Rbar(Params params) : params_(params), model_(params.payload_bytes) {}

mac::RateIndex Rbar::pick_rate(Time /*now*/) {
  return have_snr_ ? rate_ : mac::slowest_rate();
}

void Rbar::on_result(Time /*now*/, mac::RateIndex /*rate_used*/,
                     bool /*acked*/) {
  // Purely SNR-driven; frame fates carry no extra signal for RBAR.
}

void Rbar::on_snr(Time /*now*/, double snr_db) {
  // Replay reports one trace slot's SNR for every packet in the slot, so
  // the mapping is redone only when the input double changes (exact: the
  // same input always maps to the same rate).
  if (!have_snr_ || snr_db != last_snr_db_) {
    rate_ = model_.best_rate(snr_db + params_.calibration_bias_db,
                             params_.target_delivery);
  }
  last_snr_db_ = snr_db;
  have_snr_ = true;
}

void Rbar::reset() {
  have_snr_ = false;
  last_snr_db_ = 0.0;
}

Charm::Charm(Params params) : params_(params), model_(params.payload_bytes) {
  assert(params_.window > 0);
}

void Charm::prune(Time now) {
  while (!history_.empty() && now - history_.front().first > params_.window) {
    sum_snr_ -= history_.front().second;
    history_.pop_front();
  }
}

double Charm::mean_snr_db() const noexcept {
  if (history_.empty()) return 0.0;
  return sum_snr_ / static_cast<double>(history_.size());
}

mac::RateIndex Charm::pick_rate(Time now) {
  prune(now);
  if (history_.empty()) return mac::slowest_rate();
  return model_.best_rate(mean_snr_db() + params_.calibration_bias_db,
                          params_.target_delivery);
}

void Charm::on_result(Time /*now*/, mac::RateIndex /*rate_used*/,
                      bool /*acked*/) {}

void Charm::on_snr(Time now, double snr_db) {
  history_.emplace_back(now, snr_db);
  sum_snr_ += snr_db;
  prune(now);
}

void Charm::reset() {
  history_.clear();
  sum_snr_ = 0.0;
}

}  // namespace sh::rate
