"""Tests of the benchmark itself (not of sqkit). Run from the repository root:

    python3 perfbench/selftest.py

They check that the printed metric names match BENCHMARK.json, that the
tail-percentile rule picks the right value, that a failing item is
counted, that every pass feeds each item a new input, and that the
host-speed clock rescales each moment by the probes nearest to it. The
name check runs every workload briefly, about a minute in all.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _last_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_printed_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        listed = {w["name"] for w in spec["workloads"]}
        self.assertLessEqual(listed, set(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name in sorted(workloads.WORKLOADS):
                with self.subTest(workload=name, trace=trace):
                    result = _last_line(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)


class TailRule(unittest.TestCase):
    def test_tail_has_ten_items_beyond(self):
        for n, value, percentile in ((100, 90, 90.0), (1000, 990, 99.0), (21, 11, 52.38)):
            latencies = list(range(1, n + 1))
            random.Random(n).shuffle(latencies)
            summary = run.latency_summary(latencies)
            self.assertEqual(summary["tail_s"], value)
            self.assertEqual(summary["tail_items_beyond"], 10)
            self.assertAlmostEqual(summary["tail_percentile"], percentile, places=2)

    def test_short_runs_fall_back_to_the_median(self):
        for latencies, median in (([5, 1, 4, 2, 3], 3), ([4, 1, 3, 2], 2.5)):
            summary = run.latency_summary(latencies)
            self.assertEqual(summary["p50_s"], median)
            self.assertEqual(summary["tail_s"], median)
            self.assertEqual(summary["tail_percentile"], 50.0)


class FailureAccounting(unittest.TestCase):
    def test_raising_and_wrong_items_count_as_failed(self):
        def boom(cache, tracer):
            raise ValueError("injected")

        items = (
            (workloads.Item(run=lambda cache, tracer: 1.0, check=lambda out: None),),
            (workloads.Item(run=boom, check=lambda out: None),),
            (workloads.Item(run=lambda cache, tracer: -1.0,
                            check=lambda out: None if out >= 0 else "negative"),),
        )
        result = run.run_loop(items, {}, 0.05)
        records = result.records
        expected = sum(1 for r in records if r.index % 3 != 0)
        metrics, detail = run.end_to_end(result, len(items), 1.0)
        failed = detail["failed_frac"]
        self.assertGreater(expected, 0)
        self.assertEqual(failed["failed"], expected)
        self.assertEqual(failed["attempted"], len(records))
        self.assertAlmostEqual(failed["value"], expected / len(records))
        # Only the first item ever completes, so it alone sets the throughput.
        correct = len(records) - expected
        self.assertAlmostEqual(metrics["items_per_s"], correct / detail["items_per_s"]["run_s"])
        self.assertEqual(detail["items_per_s"]["correct_executions"], correct)
        self.assertEqual(metrics["latency_p50_ms"], float("inf"))


class Realizations(unittest.TestCase):
    def test_each_pass_takes_the_next_realization(self):
        seen = []
        items = tuple(tuple(workloads.Item(run=lambda cache, tracer, key=(k, r): seen.append(key),
                                           check=lambda out: None) for r in range(2))
                      for k in range(3))
        records = run.run_loop(items, {}, 0.02).records
        self.assertGreater(len(records), 6)
        self.assertEqual(seen[:6], [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])
        self.assertEqual(seen[6:12], seen[:6][:len(seen[6:12])])

    def test_workload_inputs_differ_between_realizations(self):
        with tempfile.TemporaryDirectory() as workdir:
            for name in ("score", "cli"):
                workload = workloads.WORKLOADS[name](0, workdir)
                for realizations in workload.items:
                    with self.subTest(workload=name):
                        inputs = {repr(item.run.args) for item in realizations}
                        self.assertEqual(len(inputs), len(realizations))


class HostClock(unittest.TestCase):
    def test_the_nearest_probes_set_the_factor(self):
        ref, near = hostspeed.REFERENCE_S, hostspeed.NEAREST
        slow = 2.0 ** hostspeed.ELASTICITY
        # Kernel twice as slow around t = 0, at reference speed around t = 10.
        samples = ([(0.01 * k, 2 * ref) for k in range(near)]
                   + [(10 + 0.01 * k, ref) for k in range(near)])
        clock = hostspeed.HostClock(samples)
        self.assertAlmostEqual(clock.scaled(0.5, 0.55), 0.05 / slow)
        self.assertAlmostEqual(clock.scaled(1.0, 2.0), 1.0 / slow)
        self.assertAlmostEqual(clock.scaled(9.5, 9.55), 0.05)
        # Half of [4, 6] is nearer each group; the switch is placed to within one step.
        self.assertAlmostEqual(clock.scaled(4.0, 6.0), 1.0 / slow + 1.0,
                               delta=hostspeed.STEP_S * (1 - 1 / slow))

    def test_a_slow_host_scales_back_in_the_metrics(self):
        ref = hostspeed.REFERENCE_S
        slow = 2.0 ** hostspeed.ELASTICITY
        probes = [(0.01 * k, 2 * ref) for k in range(hostspeed.NEAREST)]
        records = [run.Record(0.2, 0.010 * slow, None, 0, None),
                   run.Record(0.5, 0.030 * slow, None, 1, None)]
        metrics, detail = run.end_to_end(run.Run(records, 0.0, 1.0, probes), 2, 1.0)
        self.assertAlmostEqual(metrics["latency_p50_ms"], 20.0)
        self.assertAlmostEqual(detail["raw"]["latency_p50_ms"], 20.0 * slow)
        run_s = (1.0 - 2 * ref * len(probes)) / slow
        self.assertAlmostEqual(metrics["items_per_s"], 2 / run_s)


if __name__ == "__main__":
    unittest.main()
