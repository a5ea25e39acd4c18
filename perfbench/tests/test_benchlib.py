"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import benchlib  # noqa: E402


def span(id_, parent, start, end, name, tid=0, run_index=-1):
    return benchlib.Span(id_, parent, tid, run_index, start, end, name)


class PercentileRule(unittest.TestCase):
    def test_interpolated(self):
        samples = list(range(1, 102))
        self.assertEqual(benchlib.percentile(samples, 0.50), 51)
        self.assertEqual(benchlib.percentile(samples, 0.95), 96)
        self.assertAlmostEqual(benchlib.percentile([1, 2], 0.95), 1.95)
        self.assertEqual(benchlib.percentile([7], 0.95), 7)

    def test_p95_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(201, 0.95), 10)
        self.assertTrue(benchlib.tail_ok(201, 0.95))
        self.assertFalse(benchlib.tail_ok(200, 0.95))
        self.assertFalse(benchlib.tail_ok(27, 0.95))
        self.assertTrue(benchlib.tail_ok(512, 0.95))

    def test_median_needs_twenty_one(self):
        self.assertTrue(benchlib.tail_ok(21, 0.50))
        self.assertFalse(benchlib.tail_ok(20, 0.50))


class SelfTime(unittest.TestCase):
    def test_hint_query_inside_hint_aware(self):
        # exp.run [0, 100) holds rate.run_trace.hint_aware [10, 70), whose
        # 5000 HintQuery calls took 20 ns in all (aggregated, not spans).
        trace = benchlib.Trace(
            spans=[span(1, 0, 0, 100, "exp.run"),
                   span(2, 1, 10, 70, "rate.run_trace.hint_aware")],
            aggs=[benchlib.Agg(2, 0, 0, 5000, 20, "fault.hint_query")])
        st = benchlib.self_times(trace)
        self.assertEqual(st[1], 40)
        self.assertEqual(st[2], 40)
        by = benchlib.self_by_name(trace)
        self.assertEqual(by["fault.hint_query"], 20)
        self.assertEqual(sum(by.values()), 100)

    def test_parallel_children_count_once(self):
        # Two workers' repetitions overlap inside the sweep: the sweep's
        # self time is the part no repetition covers.
        trace = benchlib.Trace(spans=[
            span(1, 0, 0, 100, "exp.sweep"),
            span(2, 1, 0, 60, "exp.run", tid=1),
            span(3, 1, 20, 90, "exp.run", tid=2)])
        self.assertEqual(benchlib.self_times(trace)[1], 10)

    def test_layer_shares_cover_the_process(self):
        trace = benchlib.Trace(
            spans=[span(1, 0, 0, 1000, "harness.main"),
                   span(2, 1, 100, 900, "exp.sweep"),
                   span(3, 2, 100, 900, "exp.run", tid=1, run_index=0),
                   span(4, 3, 100, 300, "channel.generate_trace", tid=1, run_index=0),
                   span(5, 3, 300, 900, "rate.run_trace.rraa", tid=1, run_index=0)],
            counts={"exp.threads": 1})
        shares = benchlib.layer_shares(trace, process_wall_s=1100e-9)
        self.assertAlmostEqual(shares["channel"], 200e-9)
        self.assertAlmostEqual(shares["rate"], 600e-9)
        self.assertAlmostEqual(shares["exp"], 200e-9)
        self.assertAlmostEqual(shares["unattributed"], 100e-9)
        self.assertAlmostEqual(sum(shares.values()), 1100e-9)

    def test_pool_tail(self):
        trace = benchlib.Trace(
            spans=[span(1, 0, 0, 100, "exp.sweep"),
                   span(2, 1, 0, 40, "exp.run", tid=1),
                   span(3, 1, 0, 100, "exp.run", tid=2)],
            counts={"exp.threads": 2})
        run_s, busy, tail = benchlib.pool_stats(trace)
        self.assertAlmostEqual(busy, 0.7)
        self.assertAlmostEqual(tail, 60e-9)

    def test_parse_round_trip(self):
        text = ("span\t5\t0\t0\t-1\t10\t30\texp.sweep\n"
                "agg\t5\t0\t3\t7\t11\tfault.hint_query\n"
                "count\texp.threads\t4\n")
        trace = benchlib.parse_trace(text)
        self.assertEqual(trace.spans[0].dur_ns, 20)
        self.assertEqual(trace.aggs[0].calls, 7)
        self.assertEqual(trace.count("exp.threads"), 4.0)


class OutputGate(unittest.TestCase):
    def test_one_byte_flip_raises_error_rate(self):
        good = b'{"schema": "sh.sweep.v1", "points": []}\n'
        pinned = benchlib.digest(good)
        gate = benchlib.Gate()
        self.assertTrue(gate.record("run", 0, benchlib.output_problems(good, pinned, good)))
        self.assertEqual(gate.error_rate, 0.0)
        flipped = bytearray(good)
        flipped[10] ^= 0x01
        problems = benchlib.output_problems(bytes(flipped), pinned, good)
        self.assertEqual(len(problems), 2)
        self.assertFalse(gate.record("run", 0, problems))
        self.assertEqual((gate.failed, gate.attempted), (1, 2))
        self.assertEqual(gate.error_rate, 0.5)

    def test_nonzero_exit_fails(self):
        gate = benchlib.Gate()
        gate.record("run", 3)
        self.assertEqual(gate.failed, 1)


class PerRepetition(unittest.TestCase):
    def test_samples_grouped_by_run_index(self):
        grouped = benchlib.group_by_key([(0, 5.0), (1, 9.0), (0, 3.0), (1, 12.0), (2, 4.0)])
        self.assertEqual(grouped, {0: [5.0, 3.0], 1: [9.0, 12.0], 2: [4.0]})


class HostSpeed(unittest.TestCase):
    def test_reference_scale_uses_readings_either_side(self):
        readings = [0.04, 0.06, 0.09]
        self.assertAlmostEqual(benchlib.reference_scale(readings, 0, 0.05), 1.0)
        self.assertAlmostEqual(benchlib.reference_scale(readings, 1, 0.05), 0.05 / 0.075)


class Declared(unittest.TestCase):
    """BENCHMARK.json, the pinned digests and the code name the same things."""

    def test_per_layer_names_match(self):
        import run
        with open(os.path.join(run.HERE, "..", "BENCHMARK.json")) as f:
            declared = {m["name"] for m in json.load(f)["per_layer"]}
        measured = set(benchlib.layer_metrics(benchlib.Trace()))
        measured |= {"figure.%s.wall_s" % f for f in run.FIGURES}
        self.assertEqual(declared, measured)

    def test_every_workload_output_is_pinned(self):
        import run
        with open(run.GOLDEN_PATH) as f:
            golden = json.load(f)
        self.assertEqual(set(golden["figures"]), set(run.FIGURES))
        self.assertEqual(set(golden["sweeps"]), set(run.SWEEPS))


class Provenance(unittest.TestCase):
    BASE = {"cpu_model": "Xeon", "nproc": 4, "build_type": "RelWithDebInfo",
            "backend": "avx2", "compiler": "gcc 12", "git_describe": "abc"}

    def test_same_host_compares(self):
        other = dict(self.BASE, git_describe="def")
        self.assertEqual(benchlib.provenance_mismatch(self.BASE, other), [])

    def test_refuses_other_host_build_or_backend(self):
        for key, value in (("cpu_model", "EPYC"), ("build_type", "Release"),
                           ("backend", "portable"), ("nproc", 8)):
            other = dict(self.BASE, **{key: value})
            self.assertEqual(benchlib.provenance_mismatch(self.BASE, other), [key])

    def test_compare_command_refuses(self):
        import run
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for i, prov in enumerate((self.BASE, dict(self.BASE, backend="portable"))):
                paths.append(os.path.join(d, "%d.json" % i))
                with open(paths[-1], "w") as f:
                    json.dump({"provenance": prov, "metrics": metrics}, f)
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(run.compare(paths[0], paths[1]), 3)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(run.compare(paths[0], paths[0]), 0)


if __name__ == "__main__":
    unittest.main()
