#include "rate/trace_runner.h"

#include <algorithm>
#include <cassert>

#include "mac/airtime.h"
#include "util/rng.h"

namespace sh::rate {
namespace {

/// One packet: SNR feedback once, then a link-layer retry chain. Each
/// attempt consults the adapter, charges airtime (with growing backoff), and
/// reports its fate. Returns whether any attempt delivered the packet.
bool attempt_packet(RateAdapter& adapter, const channel::PacketFateTrace& trace,
                    const RunConfig& config, const mac::AirtimeTable& airtime,
                    Time& t, util::Rng& floor_rng) {
  if (config.provide_snr) {
    adapter.on_snr(t, trace.snr_db(std::max<Time>(0, t - config.snr_lag)));
  }
  adapter.on_packet_start(t);
  for (int retry = 0; retry <= config.link_retries; ++retry) {
    const mac::RateIndex r = adapter.pick_rate(t);
    const bool delivered = trace.delivered(t, r) &&
                           !floor_rng.bernoulli(config.iid_loss_floor);
    adapter.on_result(t, r, delivered);
    t += airtime.attempt(r, retry);
    if (delivered) return true;
  }
  return false;
}

}  // namespace

RunResult run_trace(RateAdapter& adapter, const channel::PacketFateTrace& trace,
                    const RunConfig& config) {
  assert(!trace.empty());
  const Time end = trace.duration();
  RunResult result;
  const mac::AirtimeTable airtime(config.payload_bytes, config.link_retries);
  util::Rng floor_rng(config.floor_seed);
  Time t = 0;

  if (config.workload == Workload::kUdp) {
    while (t < end) {
      ++result.attempts;
      if (attempt_packet(adapter, trace, config, airtime, t, floor_rng))
        ++result.delivered;
    }
  } else {
    transport::TcpModel tcp(config.tcp);
    while (t < end) {
      if (tcp.stalled(t)) {
        t = std::min(end, tcp.stall_until());
        if (t >= end) break;
      }
      const int window = tcp.window();
      int delivered_in_round = 0;
      int sent = 0;
      for (int i = 0; i < window && t < end; ++i) {
        ++sent;
        ++result.attempts;
        if (attempt_packet(adapter, trace, config, airtime, t, floor_rng)) {
          ++delivered_in_round;
          ++result.delivered;
        }
      }
      tcp.on_round(t, sent, delivered_in_round);
    }
  }

  result.duration_s = to_seconds(end);
  result.throughput_mbps = static_cast<double>(result.delivered) *
                           static_cast<double>(config.payload_bytes) * 8.0 /
                           result.duration_s / 1e6;
  result.delivery_ratio =
      result.attempts == 0
          ? 0.0
          : static_cast<double>(result.delivered) /
                static_cast<double>(result.attempts);
  return result;
}

}  // namespace sh::rate
