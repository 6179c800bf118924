#!/usr/bin/env python3
"""Builds and runs the selest end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, default .bench_build; later
calls only rebuild what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Extra arguments after the
four standard ones are passed to the benchmark program unchanged
(for example --inputs-only).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no selest sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out_dir, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode:
        sys.exit("perfbench: build failed")
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "ingest", "analyze"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    binary = build(out_dir)
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        trace_dir = os.path.join(out_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(trace_dir, args.workload + ".tsv")]
    command += extra
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.returncode:
        sys.stdout.write(run.stdout)
        sys.exit("perfbench: program exited with %d" % run.returncode)
    if "--inputs-only" in extra:
        sys.stdout.write(run.stdout)
        return
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        sys.exit("perfbench: program printed no result line")
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: result has keys %s" % sorted(result))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
