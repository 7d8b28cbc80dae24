#!/usr/bin/env python3
"""Pipeline benchmark of kft: Framework.transform over named workloads.

Run from anywhere inside a kft checkout:

    python3 perfbench/run.py --workload verify-bound --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The script builds perfbench/bench.exe with dune into .bench_build/, then
spawns one worker process per measurement, so every run starts cold the
way one kft-transform invocation does. One run transforms each of the
workload's programs once.

--trace 0 reports the end-to-end metrics: the median over runs of the
untraced transform time, of set-up time and of peak memory, plus the
modeled speedup and the share of transforms that succeeded. Runs repeat
until --seconds have passed, and at least twice (three times on
sim-bound).
--trace 1 reports the per-layer metrics from one traced run, plus the
tracing overhead against one untraced run.

Every transformed program is checked against the reference interpreter,
and counters that must be deterministic are compared across runs and
with earlier invocations of the same bench.exe, workload and seed
(.bench_build/perfbench/fingerprints.json). Any miss makes the result
incorrect and the exit code 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --selftest runs a tiny workload
(quickstart, 2 generations) in both modes and checks that every metric
BENCHMARK.json declares is emitted with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
FINGERPRINTS = os.path.join(ROOT, BUILD_DIR, "perfbench", "fingerprints.json")
WORKLOADS = ("verify-bound", "search-bound", "sim-bound", "selftest")
# Set-up-only processes before each run. Set-up takes about 3 ms on a
# 2-core x86-64 container; over ten invocations, the median of the 2-3
# set-ups the runs alone give spreads 11-22% (interquartile range over
# median), the median of 12 or more about 5%.
SETUP_REPS = 10
# sim-bound's memory-bound runs spread most from run to run; the median of
# three keeps its figures as steady as the others' median of two
MIN_RUNS = {"sim-bound": 3}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache=disabled", "-j", "2", "./perfbench/bench.exe"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed (%s):\n%s" % (" ".join(cmd), p.stdout[-4000:]))


def child(mode, workload, seed, check=False):
    t0 = time.time()
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed), "--t0", repr(t0)]
    if check:
        cmd.append("--check")
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker timed out after %d s" % (mode, CHILD_TIMEOUT_S))
    if p.returncode != 0:
        raise BenchError("%s worker exited %d:\n%s" % (mode, p.returncode, p.stderr[-4000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def exe_digest():
    h = hashlib.sha256()
    with open(EXE, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_fingerprints(workload, seed, rows):
    """Deterministic counters must repeat exactly across this invocation's
    runs and across invocations of the same bench.exe with the same
    workload and seed. The binary holds the kft libraries, so a change to
    the code starts afresh: a correct change may move these counters."""
    errors = []
    seen = {}
    for row in rows:
        ref = seen.setdefault(row["label"], dict(row["fingerprint"]))
        for key, value in row["fingerprint"].items():
            if ref.setdefault(key, value) != value:
                errors.append("%s: %s is %r in one run and %r in another" % (row["label"], key, ref[key], value))
    try:
        with open(FINGERPRINTS) as f:
            stored = json.load(f)
    except (OSError, ValueError):
        stored = {}
    key = "%s/%s/%d" % (exe_digest(), workload, seed)
    previous = stored.setdefault(key, {})
    for label, fp in seen.items():
        old = previous.setdefault(label, {})
        for counter, value in fp.items():
            if old.setdefault(counter, value) != value:
                errors.append("%s: %s is %r now but was %r in an earlier invocation with seed %d"
                              % (label, counter, value, old[counter], seed))
    if not errors:
        os.makedirs(os.path.dirname(FINGERPRINTS), exist_ok=True)
        tmp = FINGERPRINTS + ".tmp"
        with open(tmp, "w") as f:
            json.dump(stored, f, indent=1, sort_keys=True)
        os.replace(tmp, FINGERPRINTS)
    return errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace):
    """One invocation: returns (result object, human-readable lines, transform rows)."""
    lines = []
    setups = []
    if trace:
        # one untraced run is the base of trace.overhead_s; the traced run
        # checks every output against the reference interpreter
        runs = [child("run", workload, seed)]
        traced = child("trace", workload, seed)
    else:
        runs = []
        start = time.monotonic()
        while len(runs) < MIN_RUNS.get(workload, 2) or time.monotonic() - start < seconds:
            # set-up samples spread over the whole invocation, not one burst
            setups += [child("setup", workload, seed)["setup_s"] for _ in range(SETUP_REPS)]
            runs.append(child("run", workload, seed, check=not runs))
        traced = None

    rows = [row for run in runs for row in run["transforms"]]
    if traced:
        rows += traced["transforms"]
    failures = [(row["label"], row["failure"]) for row in rows if row["failure"]]
    errors = ["%s failed: %s" % f for f in failures]
    errors += check_fingerprints(workload, seed, rows)

    totals = [run["transform_s"] for run in runs]
    lines.append("workload %s, seed %d, %d untraced run(s)%s" % (
        workload, seed, len(runs), ", 1 traced run" if traced else ""))
    lines.append("%-24s %10s %10s %10s" % ("transform_s", "median", "min", "max"))
    labels = [row["label"] for row in runs[0]["transforms"]]
    for label in labels:
        secs = [row["seconds"] for run in runs for row in run["transforms"] if row["label"] == label]
        lines.append("  %-22s %10.4f %10.4f %10.4f" % (label, statistics.median(secs), min(secs), max(secs)))
    lines.append("  %-22s %10.4f %10.4f %10.4f" % ("(run)", statistics.median(totals), min(totals), max(totals)))

    if traced:
        lines.append("stage shares of the automated pass (traced wall time): " + ", ".join(
            "%s %.1f%%" % (stage, 100 * share) for stage, share in traced["shares"].items()))
        metrics = {name: metric(m["value"], m["unit"]) for name, m in traced["metrics"].items()}
        metrics["trace.overhead_s"] = metric(traced["traced_transform_s"] - statistics.median(totals), "s")
    else:
        speedups = [row["speedup"] for row in runs[0]["transforms"]]
        if not speedups or any(s is None or not s > 0 for s in speedups):
            errors.append("no modeled speedup for every transform of the first run")
            speedups = [s for s in speedups if s and s > 0] or [1.0]
        all_setups = setups + [run["setup_s"] for run in runs]
        metrics = {
            "transform_s": metric(statistics.median(totals), "s"),
            "setup_s": metric(statistics.median(all_setups), "s"),
            "peak_rss_mb": metric(statistics.median(run["peak_rss_mb"] for run in runs), "MB"),
            "modeled_speedup": metric(geomean(speedups), "x"),
            "success_rate": metric(1.0 - len(failures) / len(rows), "ratio"),
        }
    for name in sorted(metrics):
        lines.append("%-34s %16.6g %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
    for e in errors:
        lines.append("ERROR " + e)
    result = {"correct": not errors, "attempted": len(rows), "failed": len(failures), "metrics": metrics}
    return result, lines, rows


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    speedups = {}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, lines, rows = measure("selftest", 42, 1, trace)
        print("\n".join(lines))
        declared = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        for name, unit in declared.items():
            if name not in emitted:
                problems.append("%s metric %s is not emitted" % (section, name))
            elif emitted[name] != unit:
                problems.append("%s metric %s has unit %s, declared %s" % (section, name, emitted[name], unit))
        for name in emitted.keys() - declared.keys():
            problems.append("%s metric %s is emitted but not declared" % (section, name))
        if not result["correct"] or result["failed"]:
            problems.append("trace %d run is not correct" % trace)
        for row in rows:
            speedups.setdefault(row["label"], set()).add(row["speedup"])
    for label, values in speedups.items():
        if len(values) != 1:
            problems.append("%s: traced and untraced modeled_speedup differ: %s" % (label, sorted(values)))
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    try:
        build()
        if args.selftest:
            return selftest()
        result, lines, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
