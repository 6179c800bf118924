#!/usr/bin/env python3
"""Diff two google-benchmark JSON files and fail on regressions.

The perf benches (bench_perf_estimators, bench_perf_server,
bench_perf_durability) each write a BENCH_*.json artifact by default. Committing one per milestone gives the repo a
diffable perf trajectory; this tool is the diff:

    tools/bench_diff.py old/BENCH_estimators.json new/BENCH_estimators.json

For every benchmark present in both files it reports the per-iteration
time ratio new/old, and exits non-zero when any benchmark slowed down by
more than the threshold (default 10%, override with --threshold-pct).

Rows are keyed by `run_name`, less the `min_time:` component that
google-benchmark appends when a row sets its own minimum time (so such a
row still diffs against its recordings at the default). A file recorded
with --benchmark_repetitions=N compares as one benchmark per run: its
`median` aggregate row when the file has one (with or without
--benchmark_report_aggregates_only), otherwise its raw row (the middle one
by time if a file holds several raw rows and no median). One run of a
benchmark moves by more than 10% on a busy host; the median of five does
so far less often. Old files of single raw rows diff against new files of
medians and back.
Benchmarks present in only one file are listed but never fail the diff —
a new benchmark is not a regression. Two files that both hold benchmarks
but share none do fail: nothing was compared, so the pair is almost
certainly wrong (two different benches, or every benchmark renamed).

Counters are compared informationally (speedup_vs_scalar and friends);
`bit_identical` dropping from 1 to 0 in the new file is treated as a
failure, because the SIMD exactness contract is part of what the perf
trajectory certifies.

BENCH_feedback.json rows carry a `convergence_query` counter: the number
of observed queries after which a query-driven estimator's rolling error
stays below the best static curve. A later convergence point means the
estimator learns slower, so the diff fails when the new value exceeds
old * 1.25 + 5 — the multiplicative slack absorbs windowing noise on
large values, the additive slack absorbs jitter near zero.

A row that errored in the new file (`error_occurred`, which
google-benchmark sets through SkipWithError) fails the diff and prints
its `error_message`: it measured nothing, so it cannot count as a pass.
bench_perf_server reports a failed background refresh this way, and
BM_PsiFunctional an unsupported SIMD tier. A row that errored only in the
old file is listed, and a clean new row of that name shows as added.

A missing or empty baseline is not a failure: the first run of a new
bench (or a fresh checkout without committed baselines) has nothing to
diff against, so the tool reports "no baseline" and exits 0 — the
candidate file simply becomes the baseline to commit.
"""

import argparse
import json
import os
import sys


def load_benchmarks(path):
    """Returns ({run name: benchmark-entry}, {run name: error message}) for a
    google-benchmark JSON file; errored rows go to the second map only.

    The entry of a run is its median aggregate row if the file has one,
    else its raw row (the middle one by time among several). A
    `bit_identical` of 0 on any raw row of the run carries over to the
    entry, so a median cannot hide one diverging repetition."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    raw = {}
    medians = {}
    errors = {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("run_name", entry["name"])
        key = "/".join(
            part for part in name.split("/") if not part.startswith("min_time:")
        )
        if entry.get("error_occurred"):
            errors[key] = entry.get("error_message", "")
        elif entry.get("run_type") != "aggregate":
            raw.setdefault(key, []).append(entry)
        elif entry.get("aggregate_name") == "median":
            medians[key] = entry
    out = {}
    for key in (set(raw) | set(medians)) - set(errors):
        rows = raw.get(key, [])
        if key in medians:
            entry = dict(medians[key])
        else:
            rows_by_time = sorted(rows, key=lambda row: time_per_iter(row)[0])
            entry = dict(rows_by_time[(len(rows_by_time) - 1) // 2])
        if any(row.get("bit_identical") == 0.0 for row in rows):
            entry["bit_identical"] = 0.0
        out[key] = entry
    return out, errors


def time_per_iter(entry):
    """Per-iteration real time in the entry's own unit (unit cancels in the
    ratio as long as the benchmark kept the same unit across runs)."""
    t = entry.get("real_time")
    if t is None:
        t = entry.get("cpu_time")
    return t, entry.get("time_unit", "ns")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold-pct",
        type=float,
        default=10.0,
        help="fail when a benchmark is more than this many percent slower "
        "(default: 10)",
    )
    args = parser.parse_args()

    # No baseline (first run of a new bench) is a recording event, not a
    # regression: there is nothing to compare against yet.
    if not os.path.exists(args.old) or os.path.getsize(args.old) == 0:
        print(
            f"no baseline at {args.old}; recording — commit {args.new} "
            "as the baseline"
        )
        return 0

    old, old_errors = load_benchmarks(args.old)
    new, new_errors = load_benchmarks(args.new)

    regressions = []
    identity_breaks = []
    convergence_regressions = []
    shared = sorted(set(old) & set(new))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))

    if shared:
        width = max(len(name) for name in shared)
        print(f"{'benchmark':<{width}}  {'old':>12}  {'new':>12}  {'ratio':>7}")
        for name in shared:
            t_old, unit_old = time_per_iter(old[name])
            t_new, unit_new = time_per_iter(new[name])
            if not t_old or t_new is None or unit_old != unit_new:
                print(f"{name:<{width}}  (not comparable)")
                continue
            ratio = t_new / t_old
            flag = ""
            if ratio > 1.0 + args.threshold_pct / 100.0:
                flag = "  REGRESSION"
                regressions.append((name, ratio))
            elif ratio < 1.0 - args.threshold_pct / 100.0:
                flag = "  improved"
            print(
                f"{name:<{width}}  {t_old:>10.1f}{unit_old:>2}  "
                f"{t_new:>10.1f}{unit_new:>2}  {ratio:>7.3f}{flag}"
            )
            old_ident = old[name].get("bit_identical")
            new_ident = new[name].get("bit_identical")
            if old_ident == 1.0 and new_ident == 0.0:
                identity_breaks.append(name)
            old_speedup = old[name].get("speedup_vs_scalar")
            new_speedup = new[name].get("speedup_vs_scalar")
            if old_speedup is not None and new_speedup is not None:
                print(
                    f"{'':<{width}}  speedup_vs_scalar: "
                    f"{old_speedup:.2f}x -> {new_speedup:.2f}x"
                )
            old_conv = old[name].get("convergence_query")
            new_conv = new[name].get("convergence_query")
            if old_conv is not None and new_conv is not None:
                print(
                    f"{'':<{width}}  convergence_query: "
                    f"{old_conv:g} -> {new_conv:g}"
                )
                if new_conv > old_conv * 1.25 + 5:
                    convergence_regressions.append((name, old_conv, new_conv))

    for name in only_old:
        if name not in new_errors:
            print(f"removed: {name}")
    for name in only_new:
        print(f"added:   {name}")
    for name in sorted(set(old_errors) - set(new_errors)):
        print(f"errored in old: {name}: {old_errors[name]}")

    ok = True
    if new_errors:
        ok = False
        print(
            f"\nFAIL: {len(new_errors)} benchmark(s) errored in the new file:",
            file=sys.stderr,
        )
        for name in sorted(new_errors):
            print(f"  {name}: {new_errors[name]}", file=sys.stderr)
    if regressions:
        ok = False
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed by more than "
            f"{args.threshold_pct:g}%:",
            file=sys.stderr,
        )
        for name, ratio in regressions:
            print(f"  {name}: {100.0 * (ratio - 1.0):.1f}% slower", file=sys.stderr)
    if identity_breaks:
        ok = False
        print(
            f"\nFAIL: bit_identical dropped to 0 in: {', '.join(identity_breaks)}",
            file=sys.stderr,
        )
    if convergence_regressions:
        ok = False
        print(
            f"\nFAIL: {len(convergence_regressions)} benchmark(s) converge "
            "later than old * 1.25 + 5 queries:",
            file=sys.stderr,
        )
        for name, old_conv, new_conv in convergence_regressions:
            print(
                f"  {name}: {old_conv:g} -> {new_conv:g} queries",
                file=sys.stderr,
            )
    if not shared and not new_errors:
        if old and new:
            ok = False
            print(
                "\nFAIL: both files hold benchmarks but share none; "
                "nothing was compared",
                file=sys.stderr,
            )
        else:
            print("warning: no benchmarks in common", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
