"""Tests of the benchmark itself: seeded inputs and the printed metrics.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark (perfbench/run.py), so allow for the
build on a fresh checkout; the runs themselves take about three minutes.
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("serve", "ingest", "analyze")


def run(workload, seed, seconds, trace, *extra):
    command = ["python3", os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, timeout=900)
    if result.returncode != 0:
        raise AssertionError("%s failed:\n%s\n%s" % (
            " ".join(command), result.stdout[-2000:], result.stderr[-2000:]))
    return result.stdout


def digest(workload, seed):
    out = run(workload, seed, 1, 0, "--inputs-only")
    match = re.search(r"inputs digest: ([0-9a-f]{16})", out)
    if match is None:
        raise AssertionError("no digest in:\n" + out)
    return match.group(1)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SeededInputsTest(unittest.TestCase):

    def test_same_seed_gives_same_digest(self):
        for workload in ("serve", "analyze"):
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, 7), digest(workload, 7))

    def test_other_seed_gives_other_digest(self):
        for workload in ("serve", "analyze"):
            with self.subTest(workload=workload):
                self.assertNotEqual(digest(workload, 7), digest(workload, 8))


class PrintedMetricsTest(unittest.TestCase):

    def check_run(self, workload, trace):
        spec = benchmark_spec()
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        out = run(workload, 3, 1, trace)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual([m["name"] for m in metrics], list(result["metrics"]))
        for m in metrics:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(printed["value"], 0, m["name"])
            # Every metric is also printed by name with its unit and sample
            # count before the JSON line.
            line = re.search(r"^\s+%s\s+\S+\s+%s\s+\(" % (
                re.escape(m["name"]), re.escape(m["unit"])), out, re.M)
            self.assertIsNotNone(line, m["name"])
        self.assertIn("check ", out)
        if trace:
            self.assertIn("self-time split", out)
            self.assertIn("unexplained remainder", out)

    def test_short_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_short_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)


if __name__ == "__main__":
    unittest.main()
