#!/usr/bin/env python3
"""Benchmark entry point: build mar_perf from source and run one workload.

    python3 perf/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. On first use it configures and builds
perf/ (which builds the library from the parent directory) into
.bench_build/perf. It then runs mar_perf for --seconds of wall time and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (mar_perf --traced). Build output and
mar_perf's own table go to standard error. When the build fails, mar_perf
crashes, or a metric is missing, the script exits non-zero without a
result line.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perf")
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run `cmd`, sending its output to stderr; True when it exits 0."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_logged(["cmake", "-S", os.path.join(ROOT, "perf"), "-B",
                           BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                          BUILD_TIMEOUT_S):
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configuring perf/ failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", BUILD, "--target", "mar_perf",
                       "-j", jobs], BUILD_TIMEOUT_S):
        fail("building mar_perf failed")
    return os.path.join(BUILD, "mar_perf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    out_path = os.path.join(BUILD, f"result-{os.getpid()}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--json", out_path]
    if args.trace:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("mar_perf timed out")
    # 0: every check passed; 1: a check failed (the report says which).
    if done.returncode not in (0, 1) or not os.path.exists(out_path):
        fail(f"mar_perf exited with {done.returncode}")
    with open(out_path) as f:
        report = json.load(f)
    os.remove(out_path)

    source = report["layers" if args.trace else "metrics"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        value = got["value"] if got else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} missing or not finite")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": done.returncode == 0 and report["ok"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
