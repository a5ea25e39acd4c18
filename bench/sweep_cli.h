// Command line of the engine-backed figure binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli.h"
#include "exp/sweep.h"
#include "util/fsio.h"

namespace sh::bench {

/// `--threads N` picks the pool width (0 = hardware concurrency; the
/// printed numbers are identical at any width) and `--json FILE`
/// additionally writes the structured sh.sweep.v1 results.
struct SweepCliOptions {
  int threads = 0;
  std::string json_path;
};

/// --threads is checked like shsweep's: a non-integer or a value outside
/// [0, 4096] exits 2 with a one-line diagnostic.
inline SweepCliOptions parse_sweep_cli(int argc, char** argv) {
  SweepCliOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      opts.threads = static_cast<int>(
          cli::parse_int(argv[0], "--threads", argv[++i], 0, 4096));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--threads N] [--json FILE]\n", argv[0]);
      std::exit(2);
    }
  }
  return opts;
}

/// Writes the JSON results file if `--json` was given and returns the
/// process exit code: 1 if that write failed, as shsweep's `--out`, else 0.
/// Timing goes to stderr so stdout stays byte-stable across machines and
/// thread counts.
inline int finish_sweep(const exp::SweepResult& result,
                        const SweepCliOptions& opts) {
  if (!opts.json_path.empty() &&
      !util::atomic_write_file(opts.json_path, result.to_json())) {
    std::fprintf(stderr, "--json: cannot write %s\n", opts.json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[sweep %s: %llu runs in %.2fs]\n", result.name.c_str(),
               static_cast<unsigned long long>(result.total_runs),
               result.wall_seconds);
  return 0;
}

}  // namespace sh::bench
