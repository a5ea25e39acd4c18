#include "vanet/link_tracker.h"

#include "core/hints.h"

namespace sh::vanet {

LinkTracker::LinkTracker(Params params)
    : params_(params),
      noise_rng_(params.noise_seed),
      hash_(params.range_m) {}

void LinkTracker::observe(Time now, const std::vector<VehicleState>& snapshot) {
  hash_.build(snapshot);
  const auto connected = hash_.pairs_within(snapshot, params_.range_m);

  // Merge the (a, b)-sorted connected set against the (a, b)-sorted active
  // map. Walking both in id order makes every downstream effect — closing
  // records, birth-noise RNG draws, the event stream — a function of the
  // pair ids alone, never of scan discovery order.
  auto it = active_.begin();
  const auto close_link = [&](decltype(it)& link_it) {
    completed_.push_back(link_it->second);
    if (params_.record_events) {
      events_.push_back(LinkEvent{now, false, link_it->second.vehicle_a,
                                  link_it->second.vehicle_b, 0.0});
    }
    link_it = active_.erase(link_it);
  };
  for (const auto& pair : connected) {
    while (it != active_.end() && it->first < pair) close_link(it);
    if (it != active_.end() && it->first == pair) {
      it->second.end = now;
      ++it;
      continue;
    }
    LinkRecord rec;
    rec.vehicle_a = pair.first;
    rec.vehicle_b = pair.second;
    rec.start = now;
    rec.end = now;
    rec.heading_diff_start_deg = core::heading_difference(
        snapshot[static_cast<std::size_t>(pair.first)].heading_deg +
            noise_rng_.normal(0.0, params_.heading_noise_deg),
        snapshot[static_cast<std::size_t>(pair.second)].heading_deg +
            noise_rng_.normal(0.0, params_.heading_noise_deg));
    it = active_.emplace_hint(it, pair, rec);
    if (params_.record_events) {
      events_.push_back(LinkEvent{now, true, pair.first, pair.second,
                                  rec.heading_diff_start_deg});
    }
    ++it;
  }
  while (it != active_.end()) close_link(it);
}

std::vector<LinkRecord> LinkTracker::finish() {
  // Links still up close at their last observed timestamp, in id order
  // (std::map iteration).
  for (const auto& [key, rec] : active_) completed_.push_back(rec);
  active_.clear();
  return std::move(completed_);
}

std::vector<LinkRecord> extract_links(const TrajectoryLog& log, double range_m,
                                      double heading_noise_deg,
                                      std::uint64_t noise_seed) {
  LinkTracker tracker(
      LinkTracker::Params{range_m, heading_noise_deg, noise_seed, false});
  for (std::size_t step = 0; step < log.num_steps(); ++step) {
    tracker.observe(static_cast<Time>(step) * log.step(), log.snapshot(step));
  }
  return tracker.finish();
}

}  // namespace sh::vanet
