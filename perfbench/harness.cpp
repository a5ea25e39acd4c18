// sh_perfharness — the benchmark's in-process replica of shsweep.
//
// Runs the same library calls in the same order as tools/shsweep.cpp for
// the flag subset the benchmark workloads use, and records a span around
// each call into a layer (channel, rate, fault, exp, vanet, sensors). The
// sh.sweep.v1 JSON it writes must be byte-identical to shsweep's for the
// same flags; run.py checks that on every run, so the per-layer numbers
// describe the program users run.
//
// Spans are kept in per-thread memory and written to --spans FILE when the
// process ends. --trace 0 records only the coarse spans (set-up, the sweep,
// one per repetition, JSON emit), which is what the untraced end-to-end
// measurement needs; --trace 1 adds every layer span.
//
//   sh_perfharness sweep [shsweep flags] --out J --spans S --trace 0|1
//   sh_perfharness detector --spans S   (movement-detector probe)
//   sh_perfharness info                 (provenance as one JSON line)
//   sh_perfharness calibrate            (host-speed reference kernel)
#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "channel/trace_cache.h"
#include "exp/checkpoint.h"
#include "exp/json.h"
#include "experiment_config.h"
#include "fault/fault_config.h"
#include "sensors/accelerometer.h"
#include "sensors/movement_detector.h"
#include "util/detmath.h"
#include "util/fsio.h"
#include "util/stats.h"
#include "vanet/link_tracker.h"
#include "vanet/road_network.h"
#include "vanet/traffic_sim.h"

#ifndef SH_PERF_BUILD_TYPE
#define SH_PERF_BUILD_TYPE "unknown"
#endif

using namespace sh;

namespace {

// ---------------------------------------------------------------------------
// Span recording.

constexpr std::uint64_t kNoRun = ~std::uint64_t{0};

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

struct SpanRec {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root.
  std::uint64_t run_index;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// A hot inner call timed in aggregate rather than one span per call: its
/// calls are sequential inside the parent span, so their summed time is the
/// part of the parent they cover.
struct AggRec {
  const char* name;
  std::uint64_t parent;
  std::uint64_t run_index;
  std::uint64_t calls;
  std::int64_t total_ns;
};

struct ThreadLog {
  int tid = 0;
  std::vector<SpanRec> spans;
  std::vector<AggRec> aggs;
  std::vector<std::uint64_t> stack;  ///< Open span ids, innermost last.
  std::map<std::string, double> counts;
};

int g_level = 0;  ///< 0 = coarse spans only, 1 = every layer span.
std::atomic<std::uint64_t> g_next_id{1};
/// Parent for spans opened on a pool worker with nothing open on its stack.
std::atomic<std::uint64_t> g_sweep_id{0};
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog& thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = static_cast<int>(g_logs.size()) - 1;
  }
  return *log;
}

void count(const char* name, double v) { thread_log().counts[name] += v; }

class Span {
 public:
  Span(const char* name, int level, std::uint64_t run_index = kNoRun) {
    if (level > g_level) return;
    ThreadLog& log = thread_log();
    log_ = &log;
    const std::uint64_t parent =
        log.stack.empty() ? g_sweep_id.load() : log.stack.back();
    index_ = log.spans.size();
    log.spans.push_back(
        {name, g_next_id.fetch_add(1), parent, run_index, now_ns(), 0});
    log.stack.push_back(log.spans.back().id);
  }
  ~Span() {
    if (log_ == nullptr) return;
    log_->spans[index_].end_ns = now_ns();
    log_->stack.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return log_ != nullptr; }
  std::uint64_t id() const { return log_->spans[index_].id; }

 private:
  ThreadLog* log_ = nullptr;
  std::size_t index_ = 0;
};

bool write_spans(const std::string& path) {
  std::ofstream os(path);
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : g_logs) {
    for (const auto& s : log->spans) {
      os << "span\t" << s.id << '\t' << s.parent << '\t' << log->tid << '\t'
         << (s.run_index == kNoRun ? -1LL : static_cast<long long>(s.run_index))
         << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.name << '\n';
    }
    for (const auto& a : log->aggs) {
      os << "agg\t" << a.parent << '\t' << log->tid << '\t'
         << static_cast<long long>(a.run_index) << '\t' << a.calls << '\t'
         << a.total_ns << '\t' << a.name << '\n';
    }
  }
  std::map<std::string, double> totals;
  for (const auto& log : g_logs) {
    for (const auto& [k, v] : log->counts) totals[k] += v;
  }
  char buf[64];
  for (const auto& [k, v] : totals) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << "count\t" << k << '\t' << buf << '\n';
  }
  os.flush();
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------------------
// Options: the subset of shsweep's flags the workloads use; the rest keep
// shsweep's defaults.

struct Options {
  int threads = 0;
  std::uint64_t base_seed = 1;
  int reps = 4;
  double duration_s = 10.0;
  int offsets = 8;
  std::vector<std::string> envs{"office", "hallway", "outdoor", "vehicular"};
  std::vector<std::string> mobility{"static", "mobile"};
  std::string out_path;
  std::string name = "shsweep";
  fault::FaultConfig fault;
  double hint_max_age_ms = 2000.0;
  std::vector<double> hint_max_age_list;
  std::vector<int> vanet_vehicles;
  std::string checkpoint_path;
  std::string spans_path;
};

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "sh_perfharness: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double to_double(const char* flag, const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') fail(std::string(flag) + ": bad number '" + s + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quiet") continue;  // the harness never prints a table
    if (i + 1 >= argc) fail(flag + ": missing value");
    const std::string v = argv[++i];
    if (flag == "--threads") {
      o.threads = static_cast<int>(to_double("--threads", v));
    } else if (flag == "--base-seed") {
      o.base_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--reps") {
      o.reps = static_cast<int>(to_double("--reps", v));
    } else if (flag == "--out") {
      o.out_path = v;
    } else if (flag == "--fault") {
      const auto eq = v.find('=');
      if (eq == std::string::npos ||
          !fault::set_fault_field(o.fault, v.substr(0, eq),
                                  to_double("--fault", v.substr(eq + 1)))) {
        fail("--fault: bad KEY=VAL '" + v + "'");
      }
    } else if (flag == "--hint-max-age-list") {
      for (const auto& item : split_csv(v)) {
        o.hint_max_age_list.push_back(to_double("--hint-max-age-list", item));
      }
    } else if (flag == "--vanet-vehicles") {
      for (const auto& item : split_csv(v)) {
        o.vanet_vehicles.push_back(static_cast<int>(to_double("--vanet-vehicles", item)));
      }
    } else if (flag == "--checkpoint") {
      o.checkpoint_path = v;
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else if (flag == "--trace") {
      g_level = static_cast<int>(to_double("--trace", v));
    } else {
      fail("unknown option " + flag);
    }
  }
  if (o.out_path.empty() || o.spans_path.empty()) fail("--out and --spans are required");
  return o;
}

// ---------------------------------------------------------------------------
// Channel grid: build_grid and make_channel_run_fn of shsweep, with spans.

channel::Environment env_from_name(const std::string& name) {
  if (name == "office") return channel::Environment::kOffice;
  if (name == "hallway") return channel::Environment::kHallway;
  if (name == "outdoor") return channel::Environment::kOutdoor;
  if (name == "vehicular") return channel::Environment::kVehicular;
  fail("--envs: unknown environment '" + name + "'");
}

double offset_db(int k) { return static_cast<double>(k % 5) - 2.0; }

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

struct Cell {
  channel::Environment env;
  bool mobile;
  int offset;
  double hint_max_age_ms;
};

struct Grid {
  std::vector<exp::SweepPoint> points;
  std::vector<Cell> cells;
  std::vector<double> ages;
  std::uint64_t total = 0;
  std::uint64_t config_hash = 0;
};

Grid build_grid(const Options& o) {
  Grid grid;
  grid.ages = o.hint_max_age_list.empty() ? std::vector<double>{o.hint_max_age_ms}
                                          : o.hint_max_age_list;
  const bool age_dimension = !o.hint_max_age_list.empty();
  for (const auto& env_name : o.envs) {
    const auto env = env_from_name(env_name);
    for (const auto& mob : o.mobility) {
      const bool mobile = mob == "mobile";
      for (int k = 0; k < o.offsets; ++k) {
        for (const double age_ms : grid.ages) {
          exp::SweepPoint point;
          point.label = env_name + "/" + mob + "/offset" + std::to_string(k);
          point.params = {{"environment", env_name},
                          {"mobility", mob},
                          {"offset_db", exp::json_number(offset_db(k))}};
          if (age_dimension) {
            point.label += "/age" + std::to_string(static_cast<long long>(age_ms));
            point.params.push_back({"hint_max_age_ms", exp::json_number(age_ms)});
          }
          for (auto& kv : fault::fault_params(o.fault)) {
            point.params.push_back(std::move(kv));
          }
          point.repetitions = o.reps;
          grid.points.push_back(std::move(point));
          grid.cells.push_back(Cell{env, mobile, k, age_ms});
        }
      }
    }
  }
  grid.total = exp::total_run_count(grid.points);
  const std::uint64_t config_extra = util::Rng::derive_seed(
      double_bits(o.duration_s), double_bits(o.hint_max_age_ms));
  grid.config_hash = exp::sweep_config_hash(grid.points, o.base_seed, config_extra);
  return grid;
}

/// Trace-cache lookups split by outcome: the first lookup of a config key
/// generates the trace (a miss), later ones are served or wait on the
/// in-flight generation (a hit).
class KeyLedger {
 public:
  bool first_lookup(const channel::TraceGeneratorConfig& cfg) {
    const std::string key = channel::trace_config_key(cfg);
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_.insert(key).second;
  }

 private:
  std::mutex mutex_;
  std::set<std::string> seen_;
};

/// One adapter replay inside a span, with its attempt accounting.
template <typename Adapter>
double traced_run(const char* span_name, const char* attempts_name,
                  Adapter& adapter, const channel::PacketFateTrace& trace,
                  const rate::RunConfig& run, std::uint64_t run_index) {
  rate::RunResult r;
  {
    Span s(span_name, 1, run_index);
    r = rate::run_trace(adapter, trace, run);
  }
  if (g_level >= 1) {
    count(attempts_name, static_cast<double>(r.attempts));
    count("rate.attempts", static_cast<double>(r.attempts));
    count("rate.delivered", static_cast<double>(r.delivered));
  }
  return r.throughput_mbps;
}

/// Per-thread accumulator for fault.hint_query inside the current
/// rate.run_trace.hint_aware span.
struct HintQueryTally {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};
thread_local HintQueryTally t_hint_tally;

exp::RunFn make_channel_run_fn(const Options& o, const Grid& grid, KeyLedger& ledger,
                               std::vector<exp::MetricSample>& journal_samples) {
  const Duration duration = seconds(o.duration_s);
  return [&o, &grid, &ledger, &journal_samples, duration](
             const exp::SweepPoint&, const exp::RunContext& ctx) {
    Span rep("exp.run", 0, ctx.run_index);
    if (ctx.meter != nullptr) ctx.meter->charge(o.duration_s);
    const Cell& cell = grid.cells[ctx.point_index];
    channel::TraceGeneratorConfig cfg;
    cfg.env = cell.env;
    if (!cell.mobile) {
      cfg.scenario = sim::MobilityScenario::all_static(duration);
    } else if (cell.env == channel::Environment::kVehicular) {
      cfg.scenario = sim::MobilityScenario::all_vehicle(duration);
    } else {
      cfg.scenario = sim::MobilityScenario::all_walking(duration);
    }
    const std::uint64_t trace_run_index =
        (ctx.point_index / grid.ages.size()) * static_cast<std::uint64_t>(o.reps) +
        static_cast<std::uint64_t>(ctx.repetition);
    cfg.seed = util::Rng::derive_seed(o.base_seed, trace_run_index);
    cfg.snr_offset_db = offset_db(cell.offset);
    std::shared_ptr<const channel::PacketFateTrace> trace_ptr;
    {
      const bool miss = g_level >= 1 && ledger.first_lookup(cfg);
      Span s(miss ? "channel.generate_trace" : "channel.trace_cache.hit", 1,
             ctx.run_index);
      trace_ptr = channel::generate_trace_cached(cfg);
    }
    const channel::PacketFateTrace& trace = *trace_ptr;
    if (g_level >= 1) count("channel.slots_looked_up", static_cast<double>(trace.size()));
    rate::RunConfig run;
    run.workload = rate::Workload::kTcp;
    const std::uint64_t fault_seed =
        util::Rng::derive_seed(cfg.seed, exp::kFaultSeedStream);
    const std::uint64_t ri = ctx.run_index;

    // bench::protocol_metrics, one span per adapter replay.
    exp::MetricSample sample;
    if (o.fault.sensor_null() && o.fault.hint_null()) {
      rate::HintAwareRateAdapter hint(bench::lagged_truth_query(trace), util::Rng(42));
      sample.set("hint_mbps", traced_run("rate.run_trace.hint_aware",
                                         "rate.attempts.hint_aware", hint, trace, run, ri));
    } else {
      auto query = bench::faulty_truth_query(trace, o.fault, fault_seed,
                                             seconds(cell.hint_max_age_ms / 1000.0));
      if (g_level >= 1) {
        query.fn = [inner = std::move(query.fn)](Time t) {
          const std::int64_t t0 = now_ns();
          const auto answer = inner(t);
          t_hint_tally.ns += now_ns() - t0;
          ++t_hint_tally.calls;
          return answer;
        };
      }
      rate::HintAwareRateAdapter hint(std::move(query), util::Rng(42));
      t_hint_tally = {};
      rate::RunResult r;
      std::uint64_t span_id = 0;
      {
        Span s("rate.run_trace.hint_aware", 1, ri);
        if (s.active()) span_id = s.id();
        r = rate::run_trace(hint, trace, run);
      }
      if (g_level >= 1) {
        thread_log().aggs.push_back(
            {"fault.hint_query", span_id, ri, t_hint_tally.calls, t_hint_tally.ns});
        count("rate.attempts.hint_aware", static_cast<double>(r.attempts));
        count("rate.attempts", static_cast<double>(r.attempts));
        count("rate.delivered", static_cast<double>(r.delivered));
      }
      sample.set("hint_mbps", r.throughput_mbps);
    }
    rate::RapidSample rapid;
    sample.set("rapid_mbps", traced_run("rate.run_trace.rapid_sample",
                                        "rate.attempts.rapid_sample", rapid, trace, run, ri));
    // bench::best_samplerate_mbps: the best of three averaging windows.
    double best = 0.0;
    for (const double window_s : {2.0, 5.0, 10.0}) {
      rate::SampleRateAdapter::Params params;
      params.window = seconds(window_s);
      rate::SampleRateAdapter adapter(params, util::Rng(42));
      best = std::max(best, traced_run("rate.run_trace.sample_rate",
                                       "rate.attempts.sample_rate", adapter, trace, run, ri));
    }
    sample.set("sample_mbps", best);
    rate::Rraa rraa;
    sample.set("rraa_mbps", traced_run("rate.run_trace.rraa", "rate.attempts.rraa",
                                       rraa, trace, run, ri));
    rate::Rbar rbar;
    sample.set("rbar_mbps", traced_run("rate.run_trace.rbar", "rate.attempts.rbar",
                                       rbar, trace, run, ri));
    rate::Charm charm;
    sample.set("charm_mbps", traced_run("rate.run_trace.charm", "rate.attempts.charm",
                                        charm, trace, run, ri));
    sample.set("delivery_6m", trace.delivery_ratio(mac::slowest_rate()));
    if (!journal_samples.empty()) journal_samples[ctx.run_index] = sample;
    return sample;
  };
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

/// CheckpointWriter::append timed on the sweep's own records, written to a
/// scratch journal after the sweep (the engine appends from inside the pool,
/// where no span can reach).
void probe_journal(const Options& o, const Grid& grid,
                   const std::vector<exp::MetricSample>& samples) {
  Span probe("exp.journal.probe", 1);
  const std::string path = o.checkpoint_path + ".probe";
  exp::CheckpointWriter writer;
  exp::CheckpointHeader header;
  header.config_hash = grid.config_hash;
  header.base_seed = o.base_seed;
  header.total_runs = grid.total;
  if (!writer.create(path, header)) fail("cannot create " + path);
  AggRec agg{"exp.journal.append", probe.id(), kNoRun, 0, 0};
  for (std::uint64_t i = 0; i < samples.size(); ++i) {
    exp::RunRecord rec;
    rec.run_index = i;
    rec.sample = samples[i];
    const std::int64_t t0 = now_ns();
    writer.append(rec);
    agg.total_ns += now_ns() - t0;
    ++agg.calls;
  }
  writer.close();
  thread_log().aggs.push_back(agg);
  std::remove(path.c_str());
}

int run_channel(const Options& o) {
  std::unique_ptr<Grid> grid;
  exp::CheckpointWriter journal;
  exp::RunOptions ropts;
  std::unique_ptr<exp::SweepRunner> runner;
  {
    Span setup("exp.setup", 0);
    grid = std::make_unique<Grid>(build_grid(o));
    if (!o.checkpoint_path.empty()) {
      exp::CheckpointHeader header;
      header.config_hash = grid->config_hash;
      header.base_seed = o.base_seed;
      header.total_runs = grid->total;
      if (!journal.create(o.checkpoint_path, header)) fail("cannot create checkpoint");
      ropts.journal = &journal;
    }
    runner = std::make_unique<exp::SweepRunner>(
        exp::SweepConfig{o.name, o.base_seed, o.threads});
  }
  const bool probe = g_level >= 1 && !o.checkpoint_path.empty();
  std::vector<exp::MetricSample> journal_samples(probe ? grid->total : 0);
  KeyLedger ledger;
  exp::SweepResult result;
  {
    Span sweep("exp.sweep", 0);
    g_sweep_id = sweep.id();
    result = runner->run(grid->points,
                         make_channel_run_fn(o, *grid, ledger, journal_samples), ropts);
    g_sweep_id = 0;
  }
  std::string json;
  {
    Span s("exp.json.emit", 0);
    json = result.to_json();
  }
  {
    Span s("exp.write", 0);
    if (!util::atomic_write_file(o.out_path, json)) fail("cannot write " + o.out_path);
  }
  const auto cs = channel::global_trace_cache().stats();
  count("channel.trace_cache.hits", static_cast<double>(cs.hits));
  count("channel.trace_cache.misses", static_cast<double>(cs.misses));
  count("exp.threads", runner->thread_count());
  count("exp.total_runs", static_cast<double>(result.total_runs));
  if (journal.is_open()) {
    journal.close();
    count("exp.journal.records", static_cast<double>(journal.records_appended()));
    count("exp.journal.bytes", static_cast<double>(file_size(o.checkpoint_path)));
    if (journal.write_failed()) fail("checkpoint write failed");
  }
  if (probe) probe_journal(o, *grid, journal_samples);
  return 0;
}

// ---------------------------------------------------------------------------
// VANET mode: run_vanet_sweep of shsweep, with spans.

int run_vanet(const Options& o) {
  std::vector<exp::SweepPoint> points;
  std::vector<vanet::RoadNetwork> nets;
  std::unique_ptr<exp::SweepRunner> runner;
  {
    Span setup("exp.setup", 0);
    for (const int vehicles : o.vanet_vehicles) {
      exp::SweepPoint point;
      point.label = "vanet/v" + std::to_string(vehicles);
      point.params = {{"vehicles", exp::json_number(static_cast<double>(vehicles))}};
      point.repetitions = o.reps;
      points.push_back(std::move(point));
      Span s("vanet.city_for_scale", 1);
      nets.push_back(vanet::RoadNetwork::city_for_scale(
          vehicles, util::Rng::derive_seed(o.base_seed, static_cast<std::uint64_t>(vehicles))));
    }
    runner = std::make_unique<exp::SweepRunner>(
        exp::SweepConfig{o.name, o.base_seed, o.threads});
  }
  const Duration duration = seconds(o.duration_s);
  exp::SweepResult result;
  {
    Span sweep("exp.sweep", 0);
    g_sweep_id = sweep.id();
    result = runner->run(points, [&](const exp::SweepPoint&, const exp::RunContext& ctx) {
      Span rep("exp.run", 0, ctx.run_index);
      const std::uint64_t ri = ctx.run_index;
      const int vehicles = o.vanet_vehicles[ctx.point_index];
      const bool traced = g_level >= 1;
      vanet::TrafficSim::Params params;
      params.num_vehicles = vehicles;
      params.routing = vanet::TrafficSim::Routing::kFollowRoad;
      std::unique_ptr<vanet::TrafficSim> sim;
      {
        Span s("vanet.sim_init", 1, ri);
        sim = std::make_unique<vanet::TrafficSim>(nets[ctx.point_index], ctx.seed, params);
      }
      vanet::LinkTracker tracker(vanet::LinkTracker::Params{});
      const auto observe = [&](Time at) {
        std::vector<vanet::VehicleState> snap;
        {
          Span s("vanet.snapshot", 1, ri);
          snap = sim->snapshot();
        }
        Span s("vanet.observe", 1, ri);
        tracker.observe(at, snap);
      };
      Time now = 0;
      observe(now);
      for (Time t = 0; t < duration; t += kSecond) {
        {
          Span s("vanet.step", 1, ri);
          sim->step();
        }
        now += kSecond;
        observe(now);
      }
      std::vector<vanet::LinkRecord> links;
      {
        Span s("vanet.finish", 1, ri);
        links = tracker.finish();
      }
      if (traced) {
        const double steps = static_cast<double>(duration / kSecond);
        count("vanet.step.vehicles", steps * vehicles);
        count("vanet.snapshot.vehicles", (steps + 1) * vehicles);
        count("vanet.observe.vehicles", (steps + 1) * vehicles);
        count("vanet.links", static_cast<double>(links.size()));
      }
      util::Percentile durations;
      util::RunningStats mean_s;
      for (const auto& link : links) {
        durations.add(link.duration_s());
        mean_s.add(link.duration_s());
      }
      exp::MetricSample sample;
      sample.set("links", static_cast<double>(links.size()));
      sample.set("median_link_s", links.empty() ? 0.0 : durations.median());
      sample.set("mean_link_s", links.empty() ? 0.0 : mean_s.mean());
      sample.set("links_per_vehicle",
                 static_cast<double>(links.size()) / static_cast<double>(vehicles));
      return sample;
    });
    g_sweep_id = 0;
  }
  std::string json;
  {
    Span s("exp.json.emit", 0);
    json = result.to_json();
  }
  {
    Span s("exp.write", 0);
    if (!util::atomic_write_file(o.out_path, json)) fail("cannot write " + o.out_path);
  }
  count("exp.threads", runner->thread_count());
  count("exp.total_runs", static_cast<double>(result.total_runs));
  return 0;
}

// ---------------------------------------------------------------------------
// Movement-detector probe: the inner loop of bench_ablation_detector_roc at
// the paper's threshold, with report generation and detection timed apart.

int run_detector() {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const sim::MobilityScenario scenario{{
        {10 * kSecond, sim::MotionState::kStatic, 0.0},
        {10 * kSecond, sim::MotionState::kWalking, 1.4},
        {10 * kSecond, sim::MotionState::kStatic, 0.0},
    }};
    sensors::AccelerometerSim accel(scenario, util::Rng(300 + seed));
    std::vector<sensors::AccelReport> reports(15000);
    {
      Span s("sensors.accelerometer", 0);
      for (auto& r : reports) r = accel.next();
    }
    sensors::MovementDetector detector(sensors::MovementDetector::Params{});
    int on = 0;
    {
      Span s("sensors.detector.update", 0);
      for (const auto& r : reports) on += detector.update(r) ? 1 : 0;
    }
    count("sensors.detector.reports", static_cast<double>(reports.size()));
    count("sensors.detector.on", on);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Host-speed reference: a fixed compute kernel that uses no repository code,
// so no change to the repository changes its time; only the host does.
// run.py runs it between timed processes and scales their times by it.

int run_calibrate() {
  constexpr long kIterations = 1500000;
  double table[4096];
  for (int i = 0; i < 4096; ++i) table[i] = i * 0.001;
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  const std::int64_t t0 = now_ns();
  for (long i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    const double v = table[x & 4095];
    acc += u < 0.3 ? std::exp(-u * v) : std::sin(u + v) * 0.5;
  }
  const std::int64_t t1 = now_ns();
  std::printf("{\"kernel_ns\": %lld, \"checksum\": %.6f}\n",
              static_cast<long long>(t1 - t0), acc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) fail("usage: sh_perfharness sweep|detector|info|calibrate [flags]");
  const std::string mode = argv[1];
  if (mode == "info") {
    std::printf("{\"backend\": \"%s\", \"compiler\": \"%s %s\", \"build_type\": \"%s\"}\n",
                util::detmath::backend(),
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__, SH_PERF_BUILD_TYPE);
    return 0;
  }
  if (mode == "calibrate") return run_calibrate();
  now_ns();  // pin the span epoch at process start
  int rc = 0;
  std::string spans_path;
  if (mode == "detector") {
    if (argc != 4 || std::strcmp(argv[2], "--spans") != 0) fail("usage: detector --spans FILE");
    spans_path = argv[3];
    Span root("harness.main", 0);
    rc = run_detector();
  } else if (mode == "sweep") {
    const Options o = parse(argc, argv);
    spans_path = o.spans_path;
    Span root("harness.main", 0);
    rc = o.vanet_vehicles.empty() ? run_channel(o) : run_vanet(o);
  } else {
    fail("unknown mode '" + mode + "'");
  }
  if (!write_spans(spans_path)) fail("cannot write " + spans_path);
  return rc;
}
