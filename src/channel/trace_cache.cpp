#include "channel/trace_cache.h"

#include <cstring>
#include <utility>

namespace sh::channel {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void append_i64(std::string& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

void append_double(std::string& out, double v) {
  // Raw IEEE-754 bits: the key must distinguish every value the generator
  // could see (including -0.0 vs 0.0 — they behave identically downstream,
  // but a false split only costs a duplicate entry, never correctness).
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}

}  // namespace

std::string trace_config_key(const TraceGeneratorConfig& config) {
  std::string key;
  key.reserve(160);
  key.push_back(static_cast<char>(config.env));
  append_u64(key, config.seed);
  append_i64(key, config.slot_duration);
  append_i64(key, config.payload_bytes);
  append_double(key, config.snr_offset_db);
  append_double(key, config.snr_noise_db);
  append_double(key, config.shadow_sigma_scale);
  append_double(key, config.shadow_clock.static_hz);
  append_double(key, config.shadow_clock.walking_hz);
  append_double(key, config.shadow_clock.vehicle_hz_per_mps);
  append_double(key, config.geometry.lateral_offset_m);
  append_double(key, config.geometry.road_half_length_m);
  append_double(key, config.geometry.path_loss_exponent);
  append_double(key, config.geometry.start_position_m);
  const auto& phases = config.scenario.phases();
  append_u64(key, phases.size());
  for (const auto& phase : phases) {
    append_i64(key, phase.duration);
    key.push_back(static_cast<char>(phase.state));
    append_double(key, phase.speed_mps);
  }
  return key;
}

std::uint64_t trace_config_hash(const TraceGeneratorConfig& config) {
  // FNV-1a 64: stable across platforms and runs, good enough to identify a
  // benchmark workload (collisions only weaken the shbench comparability
  // check, never experiment results — the cache keys on the full string).
  const std::string key = trace_config_key(config);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

TraceCache::TraceCache(std::size_t capacity) : capacity_(capacity) {}

void TraceCache::evict_to_capacity_locked() {
  while (entries_.size() > capacity_ && !order_.empty()) {
    entries_.erase(order_.front());
    order_.pop_front();
    ++stats_.evictions;
  }
}

std::shared_ptr<const PacketFateTrace> TraceCache::get_or_generate(
    const TraceGeneratorConfig& config) {
  const std::string key = trace_config_key(config);
  std::promise<TracePtr> promise;
  std::shared_future<TracePtr> future;
  bool generate = false;
  bool bypass = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0) {  // Caching disabled: plain generation, no stats.
      bypass = true;
    } else {
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++stats_.hits;
        future = it->second.future;
      } else {
        ++stats_.misses;
        generate = true;
        future = promise.get_future().share();
        order_.push_back(key);
        entries_.emplace(key, Entry{future, std::prev(order_.end())});
        evict_to_capacity_locked();
      }
    }
  }
  if (bypass) {
    return std::make_shared<const PacketFateTrace>(generate_trace(config));
  }
  if (!generate) return future.get();  // Waits if still in flight.

  try {
    auto trace =
        std::make_shared<const PacketFateTrace>(generate_trace(config));
    promise.set_value(trace);
    return trace;
  } catch (...) {
    promise.set_exception(std::current_exception());
    // Drop the poisoned entry so a later, fixed caller can retry; waiters
    // already holding the future still see the exception.
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      order_.erase(it->second.order_it);
      entries_.erase(it);
    }
    throw;
  }
}

std::size_t TraceCache::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void TraceCache::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  if (capacity_ > 0) evict_to_capacity_locked();
  // capacity 0 bypasses the map entirely; drop what is resident.
  if (capacity_ == 0) {
    entries_.clear();
    order_.clear();
  }
}

std::size_t TraceCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void TraceCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  order_.clear();
  stats_ = Stats{};
}

TraceCache::Stats TraceCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TraceCache& global_trace_cache() {
  // Process-wide by design: the cache is mutex-guarded and keyed by the
  // full generator config, so shards can only ever observe the same
  // bit-identical trace a solo run would generate.
  static TraceCache cache;  // shlint:allow(T1)
  return cache;
}

std::shared_ptr<const PacketFateTrace> generate_trace_cached(
    const TraceGeneratorConfig& config) {
  return global_trace_cache().get_or_generate(config);
}

}  // namespace sh::channel
