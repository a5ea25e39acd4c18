"""Pure logic of the benchmark: percentiles, span self time, layer shares,
per-layer metrics, the output gate and provenance comparison.

Nothing here starts a process or reads the clock, so perfbench/tests can
check it directly.
"""

import hashlib
import math
from dataclasses import dataclass, field

# Samples that must lie beyond a reported percentile for it to count as
# measured rather than as one of the last few samples.
MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# Percentiles.

def percentile(samples, q):
    """The q-percentile, interpolated linearly between the two nearest order
    statistics (statistics.quantiles' "inclusive" method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie wholly above the q-percentile."""
    return n - 1 - math.ceil(q * (n - 1))


def tail_ok(n, q):
    """True when the q-percentile of n samples has MIN_BEYOND samples
    beyond it (p95 needs n >= 201, the median n >= 21)."""
    return samples_beyond(n, q) >= MIN_BEYOND


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def group_by_key(pairs):
    """The values of (key, value) pairs, listed per key."""
    out = {}
    for k, v in pairs:
        out.setdefault(k, []).append(v)
    return out


def reference_scale(kernel_s, i, nominal_s):
    """The factor taking a time measured between host-speed readings i and
    i + 1 to seconds at the reference speed: the reference kernel's nominal
    time over the mean of the two readings."""
    return nominal_s / ((kernel_s[i] + kernel_s[i + 1]) / 2.0)


# ---------------------------------------------------------------------------
# Spans.

@dataclass
class Span:
    id: int
    parent: int
    tid: int
    run_index: int
    start_ns: int
    end_ns: int
    name: str

    @property
    def dur_ns(self):
        return self.end_ns - self.start_ns


@dataclass
class Agg:
    """Calls of a hot inner function timed in aggregate inside `parent`."""
    parent: int
    tid: int
    run_index: int
    calls: int
    total_ns: int
    name: str


@dataclass
class Trace:
    spans: list = field(default_factory=list)
    aggs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def count(self, name):
        return self.counts.get(name, 0.0)


def parse_trace(text):
    """Reads the tab-separated span file sh_perfharness writes."""
    trace = Trace()
    for line in text.splitlines():
        f = line.split("\t")
        if f[0] == "span":
            trace.spans.append(Span(int(f[1]), int(f[2]), int(f[3]), int(f[4]),
                                    int(f[5]), int(f[6]), f[7]))
        elif f[0] == "agg":
            trace.aggs.append(Agg(int(f[1]), int(f[2]), int(f[3]), int(f[4]),
                                  int(f[5]), f[6]))
        elif f[0] == "count":
            trace.counts[f[1]] = float(f[2])
        elif line:
            raise ValueError("bad span line: %r" % line)
    return trace


def union_ns(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(trace):
    """Self time of every span in ns: its duration minus the part of it that
    child spans cover (their union, since children on pool workers run in
    parallel) minus the time of aggregated inner calls."""
    children = {}
    for s in trace.spans:
        children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    agg_ns = {}
    for a in trace.aggs:
        agg_ns[a.parent] = agg_ns.get(a.parent, 0) + a.total_ns
    out = {}
    for s in trace.spans:
        covered = union_ns(children.get(s.id, []), s.start_ns, s.end_ns)
        out[s.id] = max(0, s.dur_ns - covered - agg_ns.get(s.id, 0))
    return out


def self_by_name(trace):
    """Total self time in ns per span name, aggregated calls included."""
    st = self_times(trace)
    out = {}
    for s in trace.spans:
        out[s.name] = out.get(s.name, 0) + st[s.id]
    for a in trace.aggs:
        out[a.name] = out.get(a.name, 0) + a.total_ns
    return out


def layer_of(name):
    head = name.split(".")[0]
    return "exp" if head == "harness" else head


def layer_shares(trace, process_wall_s):
    """Seconds of the blocking path per layer, for one traced process.

    Spans on the main thread block the result directly and count with their
    self time. The sweep's parallel section is split two ways: the part of
    it no repetition covers is pool time (exp); the covered part is shared
    among the layers in proportion to their self time on the workers.
    Whatever the process spent outside the harness's root span (exec, load,
    exit) is reported as `unattributed`."""
    st = self_times(trace)
    agg_by_parent = {}
    for a in trace.aggs:
        agg_by_parent.setdefault(a.parent, []).append(a)
    sweeps = {s.id for s in trace.spans if s.name == "exp.sweep"}
    by_id = {s.id: s for s in trace.spans}

    def in_sweep(s):
        p = s.parent
        while p:
            if p in sweeps:
                return True
            p = by_id[p].parent if p in by_id else 0
        return False

    shares, worker = {}, {}
    for s in trace.spans:
        target = worker if in_sweep(s) else shares
        layer = layer_of(s.name)
        target[layer] = target.get(layer, 0) + st[s.id]
        for a in agg_by_parent.get(s.id, []):
            la = layer_of(a.name)
            target[la] = target.get(la, 0) + a.total_ns
    covered = sum(s.dur_ns - st[s.id] for s in trace.spans if s.id in sweeps)
    busy = sum(worker.values())
    for layer, ns in worker.items():
        shares[layer] = shares.get(layer, 0) + (covered * ns / busy if busy else 0)
    out = {k: v / 1e9 for k, v in shares.items()}
    roots = [s for s in trace.spans if s.parent == 0 and s.name == "harness.main"]
    root_s = sum(s.dur_ns for s in roots) / 1e9
    out["unattributed"] = max(0.0, process_wall_s - root_s)
    return out


def pool_stats(trace):
    """(run_s, busy_ratio, tail_s) of the sweep's parallel section."""
    sweeps = trace.named("exp.sweep")
    if not sweeps:
        return 0.0, 0.0, 0.0
    sw = sweeps[0]
    run_ns = sw.dur_ns
    threads = int(trace.count("exp.threads")) or 1
    reps = [s for s in trace.named("exp.run") if s.parent == sw.id]
    busy_ns = sum(s.dur_ns for s in reps)
    last_end = {}
    for s in reps:
        last_end[s.tid] = max(last_end.get(s.tid, 0), s.end_ns)
    # A worker that ran nothing was idle for good from the start.
    ends = list(last_end.values()) + [sw.start_ns] * max(0, threads - len(last_end))
    idle_from = min(ends) if ends else sw.end_ns
    tail_ns = max(0, sw.end_ns - idle_from)
    return run_ns / 1e9, busy_ns / (threads * run_ns) if run_ns else 0.0, tail_ns / 1e9


# ---------------------------------------------------------------------------
# Per-layer metrics.

ADAPTERS = ("hint_aware", "rapid_sample", "sample_rate", "rraa", "rbar", "charm")


def layer_metrics(trace):
    """The per-layer metrics of one traced sweep (zero where the workload
    does not run the layer)."""
    by = self_by_name(trace)
    c = trace.count
    m = {}
    hits, misses = c("channel.trace_cache.hits"), c("channel.trace_cache.misses")
    lookups = hits + misses
    slots_per_trace = c("channel.slots_looked_up") / lookups if lookups else 0.0
    gen_ns = by.get("channel.generate_trace", 0)
    m["channel.generate_trace.calls"] = misses
    m["channel.generate_trace.self_s"] = gen_ns / 1e9
    m["channel.generate_trace.ns_per_slot"] = (
        gen_ns / (misses * slots_per_trace) if misses and slots_per_trace else 0.0)
    m["channel.trace_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    for a in ADAPTERS:
        ns = by.get("rate.run_trace." + a, 0)
        attempts = c("rate.attempts." + a)
        m["rate.run_trace.%s.self_s" % a] = ns / 1e9
        m["rate.run_trace.%s.ns_per_attempt" % a] = ns / attempts if attempts else 0.0
    m["rate.attempts"] = c("rate.attempts")
    m["rate.delivered_ratio"] = c("rate.delivered") / c("rate.attempts") if c("rate.attempts") else 0.0
    hq = [a for a in trace.aggs if a.name == "fault.hint_query"]
    m["fault.hint_query.calls"] = float(sum(a.calls for a in hq))
    m["fault.hint_query.self_s"] = sum(a.total_ns for a in hq) / 1e9
    run_s, busy, tail = pool_stats(trace)
    m["exp.sweep.run_s"] = run_s
    m["exp.pool.busy_ratio"] = busy
    m["exp.pool.tail_s"] = tail
    m["exp.json.emit_ms"] = sum(s.dur_ns for s in trace.named("exp.json.emit")) / 1e6
    appends = [a for a in trace.aggs if a.name == "exp.journal.append"]
    calls = sum(a.calls for a in appends)
    m["exp.journal.append_us"] = sum(a.total_ns for a in appends) / calls / 1e3 if calls else 0.0
    m["exp.journal.bytes"] = c("exp.journal.bytes")
    m["vanet.city_for_scale_ms"] = sum(s.dur_ns for s in trace.named("vanet.city_for_scale")) / 1e6
    for part in ("step", "snapshot", "observe"):
        vehicles = c("vanet.%s.vehicles" % part)
        m["vanet.%s.ns_per_vehicle" % part] = by.get("vanet." + part, 0) / vehicles if vehicles else 0.0
    m["vanet.finish_ms"] = by.get("vanet.finish", 0) / 1e6
    m["vanet.links"] = c("vanet.links")
    reports = c("sensors.detector.reports")
    m["sensors.detector.ns_per_report"] = (
        by.get("sensors.detector.update", 0) / reports if reports else 0.0)
    return m


# ---------------------------------------------------------------------------
# Output gate.

def digest(data):
    return hashlib.sha256(data).hexdigest()


@dataclass
class Gate:
    """Counts operations and the ones that failed. An operation fails on a
    nonzero exit or on any output check that does not hold."""
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, what, exit_code, problems=()):
        self.attempted += 1
        problems = list(problems)
        if exit_code != 0:
            problems.insert(0, "exit code %d" % exit_code)
        if problems:
            self.failed += 1
            self.reasons.append("%s: %s" % (what, "; ".join(problems)))
        return not problems

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def output_problems(data, pinned=None, reference=None, what="output"):
    """Checks one output: against its pinned digest, when one is pinned for
    this input, and byte for byte against a reference output that must
    match it (the same sweep from another process or thread count)."""
    problems = []
    if pinned is not None and digest(data) != pinned:
        problems.append("%s digest %s != pinned %s" % (what, digest(data)[:12], pinned[:12]))
    if reference is not None and data != reference:
        problems.append("%s differs from the reference output" % what)
    return problems


# ---------------------------------------------------------------------------
# Provenance.

# Results measured on different hosts, build types or detmath backends are
# not comparable.
COMPARABLE_KEYS = ("cpu_model", "nproc", "build_type", "backend")


def provenance_mismatch(a, b):
    """The provenance keys on which two results differ."""
    return [k for k in COMPARABLE_KEYS if a.get(k) != b.get(k)]
