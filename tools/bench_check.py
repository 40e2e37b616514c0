#!/usr/bin/env python3
"""Regression guard for the committed benchmark counter baselines.

Compares a freshly produced google-benchmark JSON report against a baseline
committed under bench/baselines/.  Only *counters* are compared — the
deterministic per-run telemetry the engine emits, named after its rows in
src/stream/engine_stats.hpp (segments_delivered, events_popped,
events_wheeled, parallel_sweeps, ...) — never wall-clock or CPU time, which
are machine-dependent and belong in the uploaded artifacts, not in a gate.

A counter passes when it is within --tolerance (relative) of the baseline.
The default band is 0 — the engine's fixed-seed telemetry is bit-identical
run to run, so any drift is a real behaviour change; pass a small band only
for counters that legitimately wobble.  Machine-dependent counters
(peak_rss_bytes by default) are skipped.

Exit status: 0 = all rows match, 1 = a counter drifted or a baseline row is
missing from the candidate, 2 = usage / malformed input.

Usage:
  tools/bench_check.py --baseline bench/baselines/BENCH_full_pipeline.json \
                       --candidate BENCH_full_pipeline.json [--tolerance 0.0]
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Counters that depend on the machine, not the simulation: never gated.
DEFAULT_SKIP = {"peak_rss_bytes", "items_per_second"}

# Fields of a benchmark row that are timings/bookkeeping, not counters.
NON_COUNTER_FIELDS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "family_index",
    "per_family_instance_index", "label", "error_occurred", "error_message",
}


def load_rows(path):
    """Returns {row name: {counter: value}} for the per-iteration rows.

    Understands two schemas: google-benchmark JSON (a "benchmarks" array of
    rows with counters inline) and the figure benches' point reports (a
    "bench" name plus a "points" array keyed by peer count — every numeric
    field of a point is fixed-seed deterministic simulation output, so all
    of them gate).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_check: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in report.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue  # mean/median/stddev aggregates repeat the counters
        counters = {
            key: value
            for key, value in row.items()
            if key not in NON_COUNTER_FIELDS and isinstance(value, (int, float))
        }
        rows[row["name"]] = counters
    for point in report.get("points", []):
        name = f"{report.get('bench', 'points')}/peers:{point.get('peers')}"
        counters = {
            key: value
            for key, value in point.items()
            if key != "peers" and isinstance(value, (int, float))
        }
        rows[name] = counters
    return rows


def within(baseline, candidate, tolerance):
    if math.isnan(baseline) and math.isnan(candidate):
        return True
    if baseline == candidate:
        return True
    denom = max(abs(baseline), abs(candidate))
    return denom > 0 and abs(baseline - candidate) / denom <= tolerance


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--candidate", required=True, help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="relative tolerance band (default 0: exact)")
    parser.add_argument("--skip", default=",".join(sorted(DEFAULT_SKIP)),
                        help="comma-separated counters to ignore")
    args = parser.parse_args(argv)

    skip = {name for name in args.skip.split(",") if name}
    baseline_rows = load_rows(args.baseline)
    candidate_rows = load_rows(args.candidate)
    if not baseline_rows:
        print(f"bench_check: no benchmark rows in {args.baseline}", file=sys.stderr)
        return 2

    failures = 0
    checked = 0
    for name, baseline_counters in sorted(baseline_rows.items()):
        candidate_counters = candidate_rows.get(name)
        if candidate_counters is None:
            print(f"FAIL {name}: row missing from candidate report")
            failures += 1
            continue
        for counter, expected in sorted(baseline_counters.items()):
            if counter in skip:
                continue
            actual = candidate_counters.get(counter)
            if actual is None:
                print(f"FAIL {name}: counter {counter} missing from candidate")
                failures += 1
                continue
            checked += 1
            if not within(float(expected), float(actual), args.tolerance):
                print(f"FAIL {name}: {counter} = {actual} "
                      f"(baseline {expected}, tolerance {args.tolerance:g})")
                failures += 1
    for name in sorted(set(candidate_rows) - set(baseline_rows)):
        print(f"note {name}: new row not in baseline (refresh bench/baselines/)")

    if failures:
        print(f"bench_check: {failures} failure(s) across "
              f"{len(baseline_rows)} baseline row(s)")
        return 1
    print(f"bench_check: OK — {checked} counters over "
          f"{len(baseline_rows)} row(s) match {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
