// Ablation: the movement detector's jerk threshold. The paper calibrates
// the threshold (3, in its custom units) once per accelerometer type; this
// sweeps it and reports detection latency, release latency, and false-on
// fraction — the ROC behind that choice.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <vector>

#include "sensors/accelerometer.h"
#include "sensors/movement_detector.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sh;

int main() {
  std::printf(
      "=== Ablation: jerk threshold sweep (walk detection ROC) ===\n"
      "(10 scenarios x 30 s: 10 s still / 10 s walk / 10 s still)\n\n");

  // Each seed's report stream is generated once and fed to a detector per
  // threshold; every threshold's stats receive the seeds in order.
  const double thresholds[] = {0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 25.0};
  struct ThresholdStats {
    util::RunningStats false_on, detect_ms, release_ms;
    int missed = 0;
  };
  std::vector<ThresholdStats> stats(std::size(thresholds));
  const sim::MobilityScenario scenario{{
      {10 * kSecond, sim::MotionState::kStatic, 0.0},
      {10 * kSecond, sim::MotionState::kWalking, 1.4},
      {10 * kSecond, sim::MotionState::kStatic, 0.0},
  }};
  std::vector<sensors::AccelReport> reports(15000);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sensors::AccelerometerSim accel(scenario, util::Rng(300 + seed));
    for (auto& report : reports) report = accel.next();
    for (std::size_t k = 0; k < stats.size(); ++k) {
      sensors::MovementDetector::Params params;
      params.jerk_threshold = thresholds[k];
      sensors::MovementDetector detector(params);

      int static_on = 0, static_total = 0;
      Time detected_at = -1, released_at = -1;
      for (const auto& report : reports) {
        const bool on = detector.update(report);
        const bool truly_moving = scenario.moving_at(report.timestamp);
        if (!truly_moving) {
          ++static_total;
          if (on) ++static_on;
        }
        if (truly_moving && on && detected_at < 0)
          detected_at = report.timestamp;
        if (report.timestamp >= 20 * kSecond && !on && released_at < 0)
          released_at = report.timestamp;
      }
      ThresholdStats& t = stats[k];
      t.false_on.add(100.0 * static_on / std::max(static_total, 1));
      if (detected_at >= 0) {
        t.detect_ms.add(to_milliseconds(detected_at - 10 * kSecond));
      } else {
        ++t.missed;
      }
      if (released_at >= 0)
        t.release_ms.add(to_milliseconds(released_at - 20 * kSecond));
    }
  }

  util::Table table({"threshold", "false-on (static %)", "detect latency (ms)",
                     "release latency (ms)", "missed walks"});
  for (std::size_t k = 0; k < stats.size(); ++k) {
    const ThresholdStats& t = stats[k];
    table.add_row(
        {util::fmt(thresholds[k], 1), util::fmt(t.false_on.mean(), 2),
         t.detect_ms.empty() ? "-" : util::fmt(t.detect_ms.mean(), 0),
         t.release_ms.empty() ? "-" : util::fmt(t.release_ms.mean(), 0),
         std::to_string(t.missed)});
  }
  table.print(std::cout);

  std::printf(
      "\nExpected: thresholds near the paper's 3 give zero false-on time, "
      "sub-100 ms detection and ~100 ms release; far lower thresholds chatter "
      "on sensor noise, far higher ones detect late or miss gentler motion.\n");
  return 0;
}
