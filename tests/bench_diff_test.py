#!/usr/bin/env python3
"""Exit codes of tools/bench_diff.py on small google-benchmark fixture files.

Run directly or through ctest (`bench_diff_test`). Each case writes its
fixtures into a fresh temporary directory and runs the tool as a
subprocess, exactly as the README's perf-trajectory step does.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "tools", "bench_diff.py"
)


def bench(name, real_time, **counters):
    entry = {
        "name": name,
        "run_type": "iteration",
        "real_time": real_time,
        "cpu_time": real_time,
        "time_unit": "ns",
    }
    entry.update(counters)
    return entry


def aggregate(name, kind, real_time, **counters):
    entry = {
        "name": f"{name}_{kind}",
        "run_name": name,
        "run_type": "aggregate",
        "aggregate_name": kind,
        "real_time": real_time,
        "cpu_time": real_time,
        "time_unit": "ns",
    }
    entry.update(counters)
    return entry


def repeated(name, times, aggregates=True, **counters):
    """The rows --benchmark_repetitions=len(times) writes for one run: one
    raw row per repetition, then mean, median and stddev aggregates."""
    rows = []
    for index, real_time in enumerate(times):
        row = bench(name, real_time, **counters)
        row.update({"run_name": name, "repetitions": len(times),
                    "repetition_index": index})
        rows.append(row)
    if aggregates:
        ordered = sorted(times)
        rows.append(aggregate(name, "mean", sum(times) / len(times),
                              **counters))
        rows.append(aggregate(name, "median", ordered[len(ordered) // 2],
                              **counters))
        rows.append(aggregate(name, "stddev", 1.0))
    return rows


BASELINE = {"benchmarks": [bench("BM_A", 100.0, bit_identical=1.0),
                           bench("BM_B", 50.0)]}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if doc is not None:
                json.dump(doc, f)
        return path

    def diff(self, old, new):
        return subprocess.run(
            [sys.executable, TOOL, old, new],
            capture_output=True,
            text=True,
            check=False,
        )

    def test_unchanged_or_faster_passes(self):
        old = self.write("old.json", BASELINE)
        new = self.write("new.json", {"benchmarks": [
            bench("BM_A", 95.0, bit_identical=1.0), bench("BM_B", 30.0)]})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("improved", result.stdout)

    def test_time_regression_fails(self):
        old = self.write("old.json", BASELINE)
        new = self.write("new.json", {"benchmarks": [
            bench("BM_A", 150.0, bit_identical=1.0), bench("BM_B", 50.0)]})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_A", result.stderr)

    def test_broken_identity_counter_fails(self):
        old = self.write("old.json", BASELINE)
        new = self.write("new.json", {"benchmarks": [
            bench("BM_A", 100.0, bit_identical=0.0), bench("BM_B", 50.0)]})
        self.assertEqual(self.diff(old, new).returncode, 1)

    def test_added_and_removed_benchmarks_pass(self):
        old = self.write("old.json", BASELINE)
        new = self.write("new.json", {"benchmarks": [
            bench("BM_A", 100.0, bit_identical=1.0), bench("BM_C", 10.0)]})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("removed: BM_B", result.stdout)
        self.assertIn("added:   BM_C", result.stdout)

    def test_row_erroring_in_new_file_fails_with_its_message(self):
        old = self.write("old.json", {"benchmarks": [
            bench("BM_LiveServe/readers:4", 100.0), bench("BM_B", 50.0)]})
        errored = bench("BM_LiveServe/readers:4", 0.0, error_occurred=True,
                        error_message="refresh_errors: 3")
        new = self.write("new.json", {"benchmarks": [errored,
                                                     bench("BM_B", 50.0)]})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_LiveServe/readers:4: refresh_errors: 3",
                      result.stderr)
        self.assertNotIn("removed:", result.stdout)
        # Errored only in the old file: listed, not a failure.
        result = self.diff(new, old)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("errored in old: BM_LiveServe/readers:4", result.stdout)

    def test_files_sharing_no_benchmark_fail(self):
        old = self.write("old.json", BASELINE)
        new = self.write("new.json", {"benchmarks": [bench("BM_Other", 1.0)]})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("share none", result.stderr)

    def test_missing_or_empty_baseline_records(self):
        new = self.write("new.json", BASELINE)
        missing = os.path.join(self._dir.name, "absent.json")
        empty = self.write("empty.json", None)
        for old in (missing, empty):
            result = self.diff(old, new)
            self.assertEqual(result.returncode, 0, result.stderr)
            self.assertIn("no baseline", result.stdout)

    def test_repeated_rows_compare_their_median(self):
        old = self.write("old.json", {"benchmarks": repeated(
            "BM_A", [100.0, 101.0, 99.0, 100.0, 102.0])})
        # One slow repetition, last: the median holds, so no regression.
        new = self.write("new.json", {"benchmarks": repeated(
            "BM_A", [100.0, 99.0, 101.0, 98.0, 180.0])})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(result.stdout.count("BM_A"), 1, result.stdout)
        # Slow in the median, fast in the last repetition: a regression.
        new = self.write("new.json", {"benchmarks": repeated(
            "BM_A", [115.0, 116.0, 118.0, 117.0, 90.0])})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_A: 16.0% slower", result.stderr)
        # One diverging repetition breaks identity whatever the median says.
        rows = repeated("BM_A", [100.0] * 5, bit_identical=1.0)
        rows[2]["bit_identical"] = 0.0
        new = self.write("new.json", {"benchmarks": rows})
        old = self.write("old.json", {"benchmarks": repeated(
            "BM_A", [100.0] * 5, bit_identical=1.0)})
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("bit_identical dropped to 0 in: BM_A", result.stderr)

    def test_aggregates_only_file_compares_its_median(self):
        # --benchmark_report_aggregates_only: no raw rows at all.
        def aggregates_only(median, mean):
            return {"benchmarks": [aggregate("BM_A", "mean", mean),
                                   aggregate("BM_A", "median", median),
                                   aggregate("BM_A", "stddev", 3.0)]}
        old = self.write("old.json", aggregates_only(100.0, 100.0))
        new = self.write("new.json", aggregates_only(105.0, 140.0))
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("1.050", result.stdout)
        new = self.write("new.json", aggregates_only(130.0, 100.0))
        result = self.diff(old, new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_A: 30.0% slower", result.stderr)

    def test_raw_rows_diff_against_medians(self):
        # An old artifact of single raw rows (no run_name) against a new one
        # recorded with repetitions, and back: the runs pair up by name.
        medians = self.write("medians.json", {"benchmarks":
            repeated("BM_A", [104.0, 96.0, 103.0, 97.0, 300.0],
                     bit_identical=1.0)
            + repeated("BM_B", [52.0, 51.0, 49.0], aggregates=False)})
        raw = self.write("raw.json", BASELINE)
        for old, new in ((raw, medians), (medians, raw)):
            result = self.diff(old, new)
            self.assertEqual(result.returncode, 0, result.stderr)
            self.assertNotIn("removed:", result.stdout)
            self.assertNotIn("added:", result.stdout)
            self.assertEqual(result.stdout.count("BM_A"), 1, result.stdout)
        # BM_A's median is 103, BM_B's middle raw row 51.
        result = self.diff(raw, medians)
        self.assertIn("1.030", result.stdout)
        self.assertIn("1.020", result.stdout)

    def test_file_without_benchmarks_only_warns(self):
        # The hand-rolled BENCH_durability.json shape: no "benchmarks" list.
        hand_rolled = self.write("hand.json", {"benchmark": "durability"})
        both = self.write("both.json", BASELINE)
        for old, new in ((hand_rolled, both), (both, hand_rolled)):
            result = self.diff(old, new)
            self.assertEqual(result.returncode, 0, result.stderr)
            self.assertIn("no benchmarks in common", result.stderr)


if __name__ == "__main__":
    unittest.main()
