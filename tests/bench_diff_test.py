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
