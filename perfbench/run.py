#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.json B.json

Run from the root of a checkout. The first run builds shsweep, the 27
figure binaries and the in-process harness into .bench_build/; later runs
only check the build is current.

--trace 0 measures the end-to-end metrics with tracing off: shsweep and the
figure binaries as users run them, plus the harness with repetition clocks
only, for per-repetition latency and set-up time. Its times are in seconds
at the reference speed of the host (see HostSpeed). --trace 1 measures the
per-layer metrics from the traced harness, the tracing overhead and a
layer-share table. Both modes check every output and count failures
against attempted operations (benchlib.Gate).

The last line of stdout is the result object; the human report goes to
stderr and the full result, with provenance, to .bench_out/results/.
Why each workload was chosen is in BENCHMARK.json; which layer metric
should move which end-to-end metric on which workload is in
perfbench/predictions.json.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
RUN_TIMEOUT_S = 120

FIGURES = [
    "bench_ablation_ap_policies", "bench_ablation_detector_roc",
    "bench_ablation_hint_latency", "bench_ablation_probing_hold",
    "bench_ablation_rapidsample_params", "bench_association_corridor",
    "bench_fault_degradation", "bench_fig2_2_jerk",
    "bench_fig3_1_loss_correlation", "bench_fig3_5_mixed_mobility",
    "bench_fig3_6_mobile", "bench_fig3_7_static", "bench_fig3_8_vehicular",
    "bench_fig4_1_delivery_vs_hint", "bench_fig4_2_error_static",
    "bench_fig4_3_error_mobile", "bench_fig4_4_track_static",
    "bench_fig4_5_track_mobile", "bench_fig4_6_adaptive_probing",
    "bench_fig5_1_ap_pruning", "bench_hint_protocol_cost", "bench_mesh_etx",
    "bench_mic_environment", "bench_phy_policies", "bench_power_savings",
    "bench_route_stability", "bench_table5_1_link_duration",
]
# Figure binaries on the sweep engine take --threads; the rest are serial.
ENGINE_FIGURES = {"bench_fault_degradation", "bench_fig3_6_mobile",
                  "bench_fig3_7_static", "bench_fig4_1_delivery_vs_hint"}

# shsweep flags per sweep workload (the seed and thread count are added).
# One sweep replays enough distinct traces for its total work to vary little
# from seed to seed, and is short enough for a window to hold several.
SWEEPS = {
    "channel_grid": ["--reps", "16"],
    "hint_age_faults": ["--reps", "4", "--hint-max-age-list", "250,500,1000,2000",
                        "--fault", "hint_drop_rate=0.3", "--fault", "hint_delay_ms=200",
                        "--checkpoint", "{ckpt}"],
    # The middle count keeps the median repetition inside one cluster.
    "vanet_city": ["--vanet-vehicles", "10000,30000,100000"],
}
WORKLOADS = list(SWEEPS) + ["paper_figures"]


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build.

def build(threads):
    """Configures and builds what the workloads run; exits 1 on failure."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("run.py: no repository sources here (run from a checkout root)")
        sys.exit(1)
    repo_build = os.path.join(BUILD_DIR, "repo")
    harness_build = os.path.join(BUILD_DIR, "harness")
    os.makedirs(BUILD_DIR, exist_ok=True)
    logpath = os.path.join(BUILD_DIR, "build.log")
    # Ninja's no-op check takes milliseconds; Make's takes seconds per run.
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(repo_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", repo_build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", repo_build, "-j", str(threads),
                  "--target", "shsweep"] + FIGURES)
    if not os.path.isfile(os.path.join(harness_build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", harness_build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DSH_REPO_BUILD_DIR=" + os.path.abspath(repo_build)] + generator)
    steps.append(["cmake", "--build", harness_build, "-j", str(threads)])
    with open(logpath, "a") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log("run.py: build step failed (%s); see %s" % (" ".join(cmd), logpath))
                sys.exit(1)
    return {
        "shsweep": os.path.join(repo_build, "tools", "shsweep"),
        "bench": os.path.join(repo_build, "bench"),
        "harness": os.path.join(harness_build, "sh_perfharness"),
    }


# ---------------------------------------------------------------------------
# Process runs.

class Proc:
    def __init__(self, rc, wall_s, maxrss_kb, stdout):
        self.rc, self.wall_s, self.maxrss_kb, self.stdout = rc, wall_s, maxrss_kb, stdout


ALL_CPUS = sorted(os.sched_getaffinity(0))
# Serial figure binaries and the host-speed reference kernel run on one
# CPU, so the kernel reads the speed of the CPU that work ran on, and no
# process migrates between CPUs with different neighbours.
SERIAL_CPU = ALL_CPUS[-1:]


def run_proc(argv, stdout_path, cpus=None):
    """Runs argv to completion, on the given CPUs if any; stdout goes to
    stdout_path, stderr is kept beside it. Returns exit code, wall time,
    peak RSS and stdout bytes."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        # The child inherits this thread's CPU set at fork.
        if cpus:
            os.sched_setaffinity(0, cpus)
        t0 = time.perf_counter()
        try:
            p = subprocess.Popen(argv, stdout=out, stderr=err)
        finally:
            if cpus:
                os.sched_setaffinity(0, ALL_CPUS)
        timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, "rb") as f:
        data = f.read()
    return Proc(p.returncode, wall, usage.ru_maxrss, data)


def remove(path):
    if os.path.exists(path):
        os.remove(path)


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


# ---------------------------------------------------------------------------
# Host speed.

# The reference kernel's time on the host type the benchmark was defined on
# (a 4-vCPU Xeon, GCC 12) when nothing else loads it.
REFERENCE_KERNEL_S = 0.045


class HostSpeed:
    """Reads the host's speed with the reference kernel (sh_perfharness
    calibrate) before every timed process and once when the window closes.

    Neighbours on a shared host slow everything on it, by up to half, for
    tens of seconds at a time: one window's median then depends on how busy
    the neighbours were, by more than any bound a change could be held to.
    The kernel feels most of the same slow spells (it shares its CPU with
    the serial figure binaries), and it uses no repository code, so no
    change to the repository moves it. Each timed process is reported in seconds at the
    reference speed: its time scaled by REFERENCE_KERNEL_S over the mean of
    the readings either side of it. The raw times are kept in the result's
    notes."""

    def __init__(self, tools, tmp):
        self.tools, self.tmp = tools, tmp
        self.kernel_s, self.startup_s = [], []

    def read(self):
        """Takes one reading and returns its index."""
        p = run_proc([self.tools["harness"], "calibrate"],
                     os.path.join(self.tmp, "calibrate.stdout"), SERIAL_CPU)
        if p.rc != 0:
            log("run.py: the reference kernel failed (exit code %d)" % p.rc)
            sys.exit(1)
        kernel = json.loads(p.stdout)["kernel_ns"] / 1e9
        self.kernel_s.append(kernel)
        self.startup_s.append(p.wall_s - kernel)
        return len(self.kernel_s) - 1

    def scale(self, i):
        return benchlib.reference_scale(self.kernel_s, i, REFERENCE_KERNEL_S)


# ---------------------------------------------------------------------------
# Sweep workloads.

class SweepRun:
    """Runs one sweep workload through shsweep or through the harness."""

    def __init__(self, tools, workload, seed, threads, tmp):
        self.tools, self.workload, self.seed = tools, workload, seed
        self.threads, self.tmp = threads, tmp

    def args(self, tag, threads):
        ckpt = os.path.join(self.tmp, tag + ".ckpt")
        return (["--threads", str(threads), "--quiet", "--base-seed", str(self.seed),
                 "--out", os.path.join(self.tmp, tag + ".json")] +
                [a.format(ckpt=ckpt) for a in SWEEPS[self.workload]])

    def binary(self, threads=None, tag="bin"):
        remove(os.path.join(self.tmp, tag + ".json"))
        p = run_proc([self.tools["shsweep"]] + self.args(tag, threads or self.threads),
                     os.path.join(self.tmp, tag + ".stdout"))
        p.json = read_bytes(os.path.join(self.tmp, tag + ".json"))
        return p

    def harness(self, trace_level, tag="harness"):
        spans = os.path.join(self.tmp, tag + ".spans")
        remove(os.path.join(self.tmp, tag + ".json"))
        remove(spans)
        p = run_proc([self.tools["harness"], "sweep"] + self.args(tag, self.threads) +
                     ["--spans", spans, "--trace", str(trace_level)],
                     os.path.join(self.tmp, tag + ".stdout"))
        p.json = read_bytes(os.path.join(self.tmp, tag + ".json"))
        p.trace = benchlib.parse_trace(read_bytes(spans).decode()) if p.rc == 0 else None
        return p


def check_sweep(gate, what, proc, pinned, reference):
    problems = benchlib.output_problems(proc.json, pinned=pinned, reference=reference,
                                        what="sweep JSON")
    if proc.rc == 0 and not proc.json:
        problems.append("no JSON written")
    return gate.record(what, proc.rc, problems)


def sweep_window(sr, speed, gate, seconds, pinned, trace_level):
    """Alternates shsweep and the harness until the window closes; it starts
    no sweep expected to end more than half a sweep past the deadline, and
    runs each at least twice. A host-speed reading precedes every sweep.
    Every binary JSON must match the pinned digest (default seed) and the
    first binary JSON; every harness JSON must match the binary's."""
    bins, hars, steps = [], [], []
    reference = None
    deadline = time.perf_counter() + seconds
    while len(steps) < 4 or time.perf_counter() + benchlib.median(steps) / 2 < deadline:
        t0 = time.perf_counter()
        ref = speed.read()
        if len(steps) % 2 == 0:
            b = sr.binary()
            b.ref = ref
            if check_sweep(gate, "shsweep", b, pinned, reference) and reference is None:
                reference = b.json
            bins.append(b)
        else:
            h = sr.harness(trace_level)
            h.ref = ref
            check_sweep(gate, "harness (trace %d)" % trace_level, h, None,
                        reference or bins[-1].json)
            if h.rc == 0:
                hars.append(h)
        steps.append(time.perf_counter() - t0)
    speed.read()
    return bins, hars, reference


def sweep_end_to_end(sr, speed, gate, seconds, pinned):
    bins, hars, _ = sweep_window(sr, speed, gate, seconds, pinned, trace_level=0)
    ok_bins = [b for b in bins if b.rc == 0]
    if not ok_bins or not hars:
        return None, {}
    total_runs = hars[0].trace.count("exp.total_runs")
    wall = benchlib.median([b.wall_s * speed.scale(b.ref) for b in ok_bins])
    # Each repetition (a run_index, so one input) takes its median latency
    # over the window's harness sweeps; the percentiles are over those.
    reps_ms = [benchlib.median(v) for v in benchlib.group_by_key(
        (s.run_index, s.dur_ns / 1e6 * speed.scale(h.ref))
        for h in hars for s in h.trace.named("exp.run")).values()]
    setups = [(h.wall_s - h.trace.named("exp.sweep")[0].dur_ns / 1e9) * speed.scale(h.ref)
              for h in hars]
    metrics = {
        "wall_s": wall,
        "runs_per_s": total_runs / wall,
        "setup_s": benchlib.median(setups),
        "run_p50_ms": benchlib.percentile(reps_ms, 0.50),
        "run_p95_ms": benchlib.percentile(reps_ms, 0.95),
        "peak_rss_mb": benchlib.median([b.maxrss_kb for b in ok_bins]) / 1024.0,
    }
    n = len(reps_ms)
    notes = {"binary_wall_s": [b.wall_s for b in ok_bins],
             "binary_speed_scale": [speed.scale(b.ref) for b in ok_bins],
             "harness_wall_s": [h.wall_s for h in hars],
             "reference_kernel_s": speed.kernel_s,
             "repetition_samples": n, "sweeps_per_repetition": len(hars),
             "p50_rule_met": benchlib.tail_ok(n, 0.50),
             "p95_rule_met": benchlib.tail_ok(n, 0.95),
             "setup_samples": len(setups)}
    return metrics, notes


def sweep_per_layer(sr, speed, gate, seconds, pinned):
    bins, hars, reference = sweep_window(sr, speed, gate, seconds, pinned, trace_level=1)
    ok_bins = [b for b in bins if b.rc == 0]
    # Thread-count invariance: the 1-thread JSON must equal the N-thread one.
    one = sr.binary(threads=1, tag="bin1")
    check_sweep(gate, "shsweep --threads 1", one, pinned, reference)
    if not ok_bins or not hars:
        return None, {}
    per_run = [benchlib.layer_metrics(h.trace) for h in hars]
    metrics = {k: benchlib.median([m[k] for m in per_run]) for k in per_run[0]}
    untraced = benchlib.median([b.wall_s for b in ok_bins])
    traced = benchlib.median([h.wall_s for h in hars])
    mid = sorted(hars, key=lambda h: h.wall_s)[len(hars) // 2]
    shares = benchlib.layer_shares(mid.trace, mid.wall_s)
    notes = {"untraced_wall_s": untraced, "traced_wall_s": traced,
             "tracing_overhead_s": traced - untraced,
             "layer_share_s": shares, "traced_runs": len(hars),
             "trace_cache_lookups": mid.trace.count("channel.trace_cache.hits") +
             mid.trace.count("channel.trace_cache.misses")}
    return metrics, notes


# ---------------------------------------------------------------------------
# paper_figures.

def figures_window(tools, speed, gate, seconds, threads, tmp, pinned):
    """Runs the figure binaries in turn until the window closes and every
    binary ran at least once; every stdout must match its pinned digest.
    Passes after the first run the slowest binaries first, so the pass the
    deadline cuts short adds a sample where one weighs most. A host-speed
    reading precedes every binary; it is a process linked like the figure
    binaries, so it also samples their start-up. Returns each binary's
    (wall, reading index) samples and peak RSS."""
    runs = {f: [] for f in FIGURES}
    rss = {f: [] for f in FIGURES}
    deadline = time.perf_counter() + seconds
    passes = 0
    order = FIGURES
    while passes == 0 or time.perf_counter() < deadline:
        for f in order:
            if passes > 0 and time.perf_counter() >= deadline:
                break
            argv = [os.path.join(tools["bench"], f)]
            cpus = SERIAL_CPU
            if f in ENGINE_FIGURES:
                argv += ["--threads", str(threads)]
                cpus = None
            ref = speed.read()
            p = run_proc(argv, os.path.join(tmp, f + ".stdout"), cpus)
            problems = benchlib.output_problems(p.stdout, pinned=pinned.get(f),
                                                what="stdout")
            if pinned.get(f) is None:
                problems.append("no pinned digest")
            gate.record(f, p.rc, problems)
            if p.rc == 0:
                runs[f].append((p.wall_s, ref))
                rss[f].append(p.maxrss_kb)
        passes += 1
        order = sorted(FIGURES, key=lambda f: -max(runs[f], default=(0.0, 0))[0])
    speed.read()
    return runs, rss, passes


def figures_end_to_end(tools, speed, gate, seconds, threads, tmp, pinned):
    runs, rss, passes = figures_window(tools, speed, gate, seconds, threads, tmp, pinned)
    if any(not r for r in runs.values()):
        return None, {}
    per_bin = [benchlib.median([w * speed.scale(i) for w, i in r]) for r in runs.values()]
    wall = sum(per_bin)
    startup = [speed.startup_s[i] * speed.scale(i) for i in range(len(speed.kernel_s) - 1)]
    metrics = {
        "wall_s": wall,
        "runs_per_s": len(FIGURES) / wall,
        "setup_s": benchlib.median(startup),
        "run_p50_ms": benchlib.percentile(per_bin, 0.50) * 1e3,
        "run_p95_ms": benchlib.percentile(per_bin, 0.95) * 1e3,
        "peak_rss_mb": max(benchlib.median(r) for r in rss.values()) / 1024.0,
    }
    notes = {"passes": passes, "binary_samples": len(per_bin),
             "per_binary_wall_s": {f: [w for w, _ in r] for f, r in runs.items()},
             "reference_kernel_s": speed.kernel_s,
             "p50_rule_met": benchlib.tail_ok(len(per_bin), 0.50),
             "p95_rule_met": benchlib.tail_ok(len(per_bin), 0.95),
             "setup_samples": len(startup)}
    return metrics, notes


def figures_per_layer(tools, speed, gate, seconds, threads, tmp, pinned):
    runs, _, passes = figures_window(tools, speed, gate, seconds, threads, tmp, pinned)
    if any(not r for r in runs.values()):
        return None, {}
    spans = os.path.join(tmp, "detector.spans")
    p = run_proc([tools["harness"], "detector", "--spans", spans],
                 os.path.join(tmp, "detector.stdout"))
    if not gate.record("harness detector", p.rc):
        return None, {}
    metrics = benchlib.layer_metrics(benchlib.parse_trace(read_bytes(spans).decode()))
    per_bin = {f: benchlib.median([w for w, _ in r]) for f, r in runs.items()}
    for f, w in per_bin.items():
        metrics["figure.%s.wall_s" % f] = w
    suite = sum(per_bin.values())
    # The figure spans are the process walls the benchmark takes from
    # outside, so the traced and untraced suite are the same measurement.
    notes = {"untraced_wall_s": suite, "traced_wall_s": suite,
             "tracing_overhead_s": 0.0, "passes": passes,
             "layer_share_s": {"figure." + f: w for f, w in per_bin.items()}}
    return metrics, notes


# ---------------------------------------------------------------------------
# Provenance and reporting.

def provenance(tools):
    info = {}
    p = subprocess.run([tools["harness"], "info"], capture_output=True, text=True)
    if p.returncode == 0:
        info = json.loads(p.stdout)
    cpu = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
        if m:
            cpu = m.group(1).strip()
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    g = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                       text=True, env=env)
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": info.get("compiler", "unknown"),
        # RelWithDebInfo is the declared configuration: Release does not
        # build at this commit (GCC 12 -Wrestrict under -Werror).
        "build_type": info.get("build_type", "unknown"),
        "backend": info.get("backend", "unknown"),
        "git_describe": g.stdout.strip() if g.returncode == 0 else "unknown",
    }


def report(workload, trace, metrics, notes, prov, gate):
    log("== %s (trace %d) ==" % (workload, trace))
    log("provenance: " + json.dumps(prov, sort_keys=True))
    for k in sorted(metrics):
        log("  %-48s %.6g" % (k, metrics[k]))
    for k in sorted(notes):
        if not isinstance(notes[k], (list, dict)):
            log("  [%s] %s" % (k, notes[k]))
    shares = notes.get("layer_share_s")
    if shares:
        total = sum(shares.values())
        log("  layer share of the blocking path (median traced run, %.4f s):" % total)
        for layer, s in sorted(shares.items(), key=lambda kv: -kv[1]):
            log("    %-44s %9.4f s %6.1f%%" % (layer, s, 100 * s / total if total else 0))
        log("  layers account for %.4f s; untraced wall %.4f s, traced wall %.4f s, "
            "tracing overhead %.4f s" % (total - shares.get("unattributed", 0.0),
                                         notes["untraced_wall_s"], notes["traced_wall_s"],
                                         notes["tracing_overhead_s"]))
    log("  error_rate %.6g (%d failed / %d attempted)" % (gate.error_rate, gate.failed,
                                                          gate.attempted))
    for r in gate.reasons[:20]:
        log("  FAILED " + r)


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    bad = benchlib.provenance_mismatch(a["provenance"], b["provenance"])
    if bad:
        log("refusing to compare: provenance differs on " + ", ".join(bad))
        for k in bad:
            log("  %s: %r vs %r" % (k, a["provenance"].get(k), b["provenance"].get(k)))
        return 3
    for k in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][k]["value"], b["metrics"][k]["value"]
        rel = (vb - va) / va * 100 if va else float("nan")
        print("%-48s %14.6g %14.6g %+8.2f%%" % (k, va, vb, rel))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    threads = max(1, min(4, os.cpu_count() or 1))
    tools = build(threads)
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    tmp = os.path.join(OUT_DIR, "tmp", args.workload)
    os.makedirs(tmp, exist_ok=True)
    gate = benchlib.Gate()

    speed = HostSpeed(tools, tmp)
    if args.workload == "paper_figures":
        run = figures_per_layer if args.trace else figures_end_to_end
        metrics, notes = run(tools, speed, gate, args.seconds, threads, tmp,
                             golden["figures"])
    else:
        pinned = golden["sweeps"][args.workload] if args.seed == golden["seed"] else None
        sr = SweepRun(tools, args.workload, args.seed, threads, tmp)
        run = sweep_per_layer if args.trace else sweep_end_to_end
        metrics, notes = run(sr, speed, gate, args.seconds, pinned)
    if metrics is not None and args.trace and args.workload != "paper_figures":
        # Sweeps run no figure binary.
        metrics.update({"figure.%s.wall_s" % f: 0.0 for f in FIGURES})
    if metrics is None:
        log("run.py: no successful measurement")
        for r in gate.reasons[:20]:
            log("  FAILED " + r)
        return 1

    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        log("run.py: metrics not measured: " + ", ".join(missing))
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}

    prov = provenance(tools)
    prov["threads"] = threads
    report(args.workload, args.trace, metrics, notes, prov, gate)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": out}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, provenance=prov, notes=notes, seed=args.seed,
                       error_rate=gate.error_rate), f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
