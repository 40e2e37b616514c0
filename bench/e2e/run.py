#!/usr/bin/env python3
"""End-to-end benchmark of the gossip-streaming simulator.

Builds bench/e2e (the `gs` library plus e2e_driver) in Release under
build-e2e/ and runs workload repetitions, one driver process per rep, one
engine at a time.  Every rep's output digest is checked against
bench/e2e/golden.json where a golden exists, and against the other reps of
the same input otherwise; every rep also checks the driver's invariants.

Modes:
  run.py [--seed N] [--reps R] [--out PATH]
      Full round: R untraced reps per workload, interleaved across
      workloads, then an untraced/traced/traced/untraced block each.  Prints every metric as median,
      min-max and n, writes a JSON report (default build-e2e/e2e_report.json)
      and trace_<workload>.json files next to it.
  run.py --workload W --seed N --seconds S --trace 0|1
      One timed run of one workload: reps until S seconds are used.  The
      last stdout line is a JSON object {correct, attempted, failed,
      metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
      (from traced reps) with --trace 1.
  run.py --smoke
      Every workload at reduced scale, checked against the smoke goldens.
  run.py --compare A.json B.json
      Compares two full-round reports against the bounds in BENCHMARK.json.
  run.py --refresh-goldens
      Recomputes golden.json (see README.md before doing this).

Reps run in pairs on one input: rep i of a run with seed N simulates input
seed N + i // 2.  A run's medians so cover as many inputs as fit in it
(averaging out seed-to-seed differences in work and memory), and every
input runs twice, which checks that it reproduces its digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
DRIVER = BUILD / "e2e_driver"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ["paper-pair-1k", "busy-15k-4lane", "steady-60k", "churn-cdn-1k"]
# The 4-lane workload's goldens are recorded sequentially, so every 4-lane
# rep also proves shard-count identity.
GOLDEN_SHARDS = {"busy-15k-4lane": 0}
GOLDEN_SEEDS = [1, 2]
E2E = {"setup_s": "s", "sim_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics that are exact functions of the inputs on one machine.
DETERMINISTIC = {
    "core.schedule_calls", "core.candidates_per_call", "core.requests_per_call",
    "core.calls_per_plan", "stream.bytes_per_peer", "stream.plans_built",
    "stream.plans_gated", "stream.gate_hit", "stream.availability_probes_per_plan",
    "stream.index_updates", "stream.replanned_ticks", "stream.commit_conflict_fixups",
    "stream.parallel_commits", "stream.delivery_batches", "stream.delta_journal_merges",
    "stream.superbatch_sweeps", "stream.segments_delivered", "stream.requests_issued",
    "stream.reject_ratio", "stream.dup_ratio", "stream.joins", "stream.leaves",
    "stream.cdn_segments_served", "stream.cdn_handoffs", "gossip.membership_bits",
    "gossip.buffer_map_bits_per_data_bit", "sim.events_popped", "sim.events_wheeled",
    "sim.wheel_overflow_promotions", "sim.spill_heap_peak", "sim.cross_shard_events",
    "util.arena_steady_chunks",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message):
    log(f"run.py: {message}")
    sys.exit(2)


# ------------------------------------------------------------------ build ---

def build():
    """Configures (once) and builds the driver; all output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no simulator sources under {ROOT} (CMakeLists.txt and src/ expected)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs, "--target", "e2e_driver"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if result.returncode != 0:
            die(f"build step failed: {' '.join(step)}")


# ------------------------------------------------------------------- reps ---

def run_driver(workload, seed, traced=False, smoke=False, shards=None, trace_out=None,
               timeout=300):
    """One rep in its own process: (driver JSON, None) or (None, error)."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    if shards is not None:
        cmd += ["--shards", str(shards)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparsable driver output"


class Checker:
    """Checks each rep: invariants, golden digest, same digest per input."""

    def __init__(self, goldens):
        self.goldens = goldens
        self.seen = {}

    def check(self, workload, seed, rep, error):
        if error:
            return error
        if rep["errors"]:
            return "invariant: " + "; ".join(rep["errors"])
        expected = self.goldens.get(workload, {}).get(str(seed))
        if expected is None:
            expected = self.seen.setdefault((workload, seed), rep["digest"])
        if rep["digest"] != expected:
            return f"digest {rep['digest']} != {expected} (seed {seed})"
        return None


def load_goldens(section):
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text()).get(section, {})


def rep_seed(seed, i):
    return seed + i // 2


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------- contract mode ------

def timed_run(args):
    """Reps of one workload until --seconds are used; prints one JSON line."""
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload} (have {', '.join(WORKLOADS)})")
    build()
    checker = Checker(load_goldens("workloads"))
    traced_run = args.trace == 1
    untraced, traced, failures = [], [], []
    start = time.monotonic()
    i = 0
    while True:
        traced_rep = traced_run and i % 2 == 1
        seed = rep_seed(args.seed, i)
        trace_out = BUILD / f"trace_{args.workload}.json" if traced_rep and not traced else None
        rep, error = run_driver(args.workload, seed, traced=traced_rep, trace_out=trace_out,
                                timeout=150)
        problem = checker.check(args.workload, seed, rep, error)
        i += 1
        if problem:
            failures.append(problem)
            log(f"rep {i} (seed {seed}) FAILED: {problem}")
        else:
            (traced if traced_rep else untraced).append(rep)
        # Stop on whole pairs, before a pair that would overrun the budget.
        elapsed = time.monotonic() - start
        if i % 2 == 0 and elapsed + 2 * elapsed / i > args.seconds:
            break

    if traced_run:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = {name: {"value": median([r[name] for r in untraced]), "unit": unit}
                   for name, unit in E2E.items()}
    for name, m in metrics.items():
        log(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": i,
                      "failed": len(failures), "metrics": metrics}))


def layer_metrics(traced, untraced):
    """The per-layer metrics of BENCHMARK.json: medians over the traced reps."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: {"value": trace_overhead(traced, untraced)
                        if m["name"] == "core.trace_overhead"
                        else median([r["layers"][m["name"]] for r in traced]),
                        "unit": m["unit"]}
            for m in spec["per_layer"]}


def trace_overhead(traced, untraced):
    """Traced sim_s over untraced sim_s, minus one (medians)."""
    base = median([r["sim_s"] for r in untraced])
    return median([r["sim_s"] for r in traced]) / base - 1.0 if base > 0 and traced else 0.0


# ------------------------------------------------------------ full round ----

def manifest(seed, reps):
    def capture(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    compiler = ""
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                version = capture([line.split("=", 1)[1], "--version"])
                compiler = version.splitlines()[0] if version else ""
    sha = capture(["git", "rev-parse", "HEAD"]) or "unknown"
    dirty = bool(capture(["git", "status", "--porcelain", "--untracked-files=no"]))
    return {"nproc": os.cpu_count(), "build_type": "Release", "compiler": compiler,
            "git_sha": sha, "git_dirty": dirty, "seed": seed, "reps": reps,
            "machine": platform.machine(), "python": platform.python_version(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def summarize(values, unit):
    return {"median": median(values), "min": min(values, default=0.0),
            "max": max(values, default=0.0), "n": len(values), "unit": unit}


def full_round(args):
    build()
    out = Path(args.out) if args.out else BUILD / "e2e_report.json"
    checker = Checker(load_goldens("workloads"))
    results = {w: {"reps": [], "failures": [], "ops": 0} for w in WORKLOADS}
    for i in range(args.reps):
        for w in WORKLOADS:
            seed = rep_seed(args.seed, i)
            rep, error = run_driver(w, seed)
            problem = checker.check(w, seed, rep, error)
            results[w]["ops"] += 1
            if problem:
                results[w]["failures"].append(problem)
                log(f"{w} rep {i + 1} (seed {seed}) FAILED: {problem}")
            else:
                results[w]["reps"].append(rep)
                log(f"{w} rep {i + 1} seed {seed}: setup {rep['setup_s']:.3f} s, "
                    f"sim {rep['sim_s']:.3f} s, rss {rep['peak_rss_mb']:.1f} MB")
    for w in WORKLOADS:
        r = results[w]
        # Untraced, traced, traced, untraced on one input: the tracing
        # overhead compares neighbours in time, not the whole round.
        pair = {False: [], True: []}
        for traced in (False, True, True, False):
            first_traced = traced and not pair[True]
            trace_out = out.parent / f"trace_{w}.json" if first_traced else None
            rep, error = run_driver(w, args.seed, traced=traced, trace_out=trace_out)
            problem = checker.check(w, args.seed, rep, error)
            r["ops"] += 1
            if problem:
                r["failures"].append(problem)
            else:
                pair[traced].append(rep)
        r["ops_failed"] = len(r["failures"])
        r["summary"] = {m: summarize([x[m] for x in r["reps"]], u) for m, u in E2E.items()}
        if pair[True] and pair[False]:
            r["trace_overhead"] = trace_overhead(pair[True], pair[False])
            r["paper"] = pair[True][0]["paper"]
            r["layers"] = layer_metrics(pair[True], pair[False])
    report = {"manifest": manifest(args.seed, args.reps), "workloads": results}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(f"report: {out}")
    failed = sum(results[w]["ops_failed"] for w in WORKLOADS)
    return 1 if failed else 0


def print_report(report):
    m = report["manifest"]
    print(f"nproc {m['nproc']}, {m['build_type']}, {m['compiler']}, "
          f"git {m['git_sha'][:12]}{'+dirty' if m['git_dirty'] else ''}, "
          f"seed {m['seed']}, reps {m['reps']}")
    for w, r in report["workloads"].items():
        print(f"\n{w}: ops {r['ops']}, ops_failed {r['ops_failed']}")
        for name, s in r["summary"].items():
            print(f"  {name:14s} {s['median']:10.4f} {s['unit']:3s} "
                  f"[{s['min']:.4f} - {s['max']:.4f}] n={s['n']}")
        if r.get("layers"):
            print(f"  tracing overhead {100 * r['trace_overhead']:+.1f}% of sim_s")
            print("  paper §5.2 (seed %d): %s" % (m["seed"], ", ".join(
                f"{k} {'n/a' if v is None else f'{v:.4g}'}" for k, v in r["paper"].items())))
            for name, v in r["layers"].items():
                print(f"    {name:40s} {v['value']:.6g} {v['unit']}")


# --------------------------------------------------------------- compare ----

def compare(path_a, path_b):
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    same_seed = a["manifest"]["seed"] == b["manifest"]["seed"]
    disagreements = 0
    print(f"A: {path_a} (git {a['manifest']['git_sha'][:12]}, seed {a['manifest']['seed']})")
    print(f"B: {path_b} (git {b['manifest']['git_sha'][:12]}, seed {b['manifest']['seed']})")
    for w in WORKLOADS:
        ra, rb = a["workloads"].get(w), b["workloads"].get(w)
        if not ra or not rb:
            continue
        print(f"\n{w}")
        for name, bound in bounds.items():
            sa, sb = ra["summary"][name], rb["summary"][name]
            change = sb["median"] / sa["median"] - 1.0 if sa["median"] else 0.0
            verdict = "agree" if abs(change) <= bound else "DISAGREE"
            disagreements += verdict != "agree"
            print(f"  {name:36s} A {sa['median']:.4f} [{sa['min']:.4f}-{sa['max']:.4f}]  "
                  f"B {sb['median']:.4f} [{sb['min']:.4f}-{sb['max']:.4f}]  "
                  f"{100 * change:+.1f}% (bound {100 * bound:.0f}%) {verdict}")
        la, lb = ra.get("layers") or {}, rb.get("layers") or {}
        for name in sorted(DETERMINISTIC & la.keys() & lb.keys()):
            va, vb = la[name]["value"], lb[name]["value"]
            verdict = "exact" if va == vb else ("differ" if not same_seed else "MISMATCH")
            disagreements += verdict == "MISMATCH"
            print(f"  {name:36s} A {va:.10g}  B {vb:.10g}  {verdict}")
    print(f"\n{'agree' if disagreements == 0 else f'{disagreements} disagreement(s)'}")
    return 1 if disagreements else 0


# ----------------------------------------------------------- smoke/golden ---

def smoke():
    build()
    checker = Checker(load_goldens("smoke"))
    failed = 0
    start = time.monotonic()
    for w in WORKLOADS:
        rep, error = run_driver(w, 1, smoke=True, timeout=60)
        problem = checker.check(w, 1, rep, error)
        if problem is None and "1" not in checker.goldens.get(w, {}):
            problem = "no smoke golden"
        failed += problem is not None
        print(f"{w:16s} {'ok' if problem is None else 'FAILED: ' + problem}")
    print(f"smoke: {len(WORKLOADS) - failed}/{len(WORKLOADS)} ok in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if failed else 0


def refresh_goldens():
    build()
    golden = {"workloads": {}, "smoke": {}}
    for w in WORKLOADS:
        shards = GOLDEN_SHARDS.get(w)
        for section, seeds, smoke_run in (("workloads", GOLDEN_SEEDS, False),
                                          ("smoke", [1], True)):
            for seed in seeds:
                rep, error = run_driver(w, seed, smoke=smoke_run, shards=shards)
                if error or rep["errors"]:
                    die(f"{w} seed {seed}: {error or rep['errors']}")
                golden[section].setdefault(w, {})[str(seed)] = rep["digest"]
                log(f"{section} {w} seed {seed}: {rep['digest']}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--refresh-goldens", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if args.refresh_goldens:
        return refresh_goldens()
    if args.workload:
        timed_run(args)
        return 0
    return full_round(args)


if __name__ == "__main__":
    sys.exit(main())
