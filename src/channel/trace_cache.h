// Process-wide memoization of generated packet-fate traces.
//
// A sweep that varies only protocol parameters (the common shsweep study:
// one channel, many hint/staleness settings) re-requests the exact same
// TraceGeneratorConfig once per sweep point. generate_trace is a pure
// function of its config, so those requests can share one generated trace;
// the cache hands out shared_ptr<const> snapshots, which makes a hit safe
// to consume from any pool worker.
//
// Determinism: a cached trace is byte-identical to a freshly generated one
// (same pure function, same config), so cache hits, misses, and evictions
// can never change experiment output — they change only how often the
// generator runs. Eviction policy is deterministic given the sequence of
// insertions (FIFO by first insertion); under a thread pool the insertion
// order may vary with scheduling, which affects only which configs get
// regenerated, never their contents.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "channel/trace_generator.h"

namespace sh::channel {

/// Canonical byte-exact key for a TraceGeneratorConfig: every field — the
/// environment, each mobility phase, seed, slot/payload, the SNR offsets
/// and noise, the shadowing scale and clock, and the drive-by geometry —
/// serialized in a fixed order, doubles as raw IEEE-754 bit patterns. Two
/// configs share a key iff generate_trace is guaranteed to produce the same
/// trace.
std::string trace_config_key(const TraceGeneratorConfig& config);

/// Stable 64-bit FNV-1a hash of trace_config_key. shbench records it in
/// sh.bench.v1 output so a benchmark is only ever compared against a
/// baseline generated from the identical workload.
std::uint64_t trace_config_hash(const TraceGeneratorConfig& config);

/// Bounded, thread-safe trace cache. Concurrent get_or_generate calls for
/// the same config generate the trace once: the first caller publishes an
/// in-flight future under the lock and generates outside it, later callers
/// wait on that future instead of duplicating the work.
class TraceCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity` is the maximum number of resident traces; 0 disables
  /// caching (get_or_generate degenerates to plain generate_trace).
  explicit TraceCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the trace for `config`, generating it on first request.
  /// Exceptions from generate_trace (invalid config) propagate to every
  /// caller waiting on that config and leave the cache without the entry.
  std::shared_ptr<const PacketFateTrace> get_or_generate(
      const TraceGeneratorConfig& config);

  std::size_t capacity() const;
  /// Shrinking below the resident count evicts oldest-first immediately.
  void set_capacity(std::size_t capacity);
  std::size_t size() const;
  void clear();
  Stats stats() const;

  static constexpr std::size_t kDefaultCapacity = 64;

 private:
  using TracePtr = std::shared_ptr<const PacketFateTrace>;

  struct Entry {
    std::shared_future<TracePtr> future;
    std::list<std::string>::iterator order_it;
  };

  /// Pops insertion-order entries until size() < capacity. Requires lock.
  void evict_to_capacity_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> order_;  ///< FIFO eviction order (oldest first).
  Stats stats_;
};

/// The process-wide cache behind generate_trace_cached.
TraceCache& global_trace_cache();

/// generate_trace through the global cache. The returned trace is shared —
/// callers must treat it as immutable (the type enforces this).
std::shared_ptr<const PacketFateTrace> generate_trace_cached(
    const TraceGeneratorConfig& config);

}  // namespace sh::channel
