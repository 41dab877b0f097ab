#!/usr/bin/env python3
"""Check that two sets of mar_perf runs of the same code agree.

    python3 perf/check_agree.py SET_A/*.json -- SET_B/*.json
    python3 perf/check_agree.py --self-test

Each file is a report written by `mar_perf --json` (untraced). For every
workload and every end-to-end metric of BENCHMARK.json, the script prints
the median and quartiles of both sets and the relative distance of the
medians. It exits 1 when a distance exceeds the metric's bound, when a
metric is missing from a report, when a report failed its checks, or when
a workload appears in only one set; 2 on bad usage.
"""
import json
import os
import random
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def load_set(paths, bounds, problems):
    """{workload: {metric: [values]}} of one set of reports."""
    runs = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        workload = report["workload"]
        if not report.get("ok"):
            problems.append(f"{path}: run failed its checks")
        per_metric = runs.setdefault(workload, {})
        for name in bounds:
            got = report.get("metrics", {}).get(name)
            if got is None or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{path}: metric {name} missing")
                continue
            per_metric.setdefault(name, []).append(got["value"])
    return runs


def compare(set_a, set_b, bounds):
    """Print the comparison table; return the list of problems."""
    problems = []
    a = load_set(set_a, bounds, problems)
    b = load_set(set_b, bounds, problems)
    for workload in sorted(set(a) ^ set(b)):
        problems.append(f"workload {workload} is in only one set")
    print(f"{'workload':15} {'metric':22} {'A q1/med/q3':>34} "
          f"{'B q1/med/q3':>34} {'dist':>7} {'bound':>6}")
    for workload in sorted(set(a) & set(b)):
        for name, bound in bounds.items():
            va = a[workload].get(name)
            vb = b[workload].get(name)
            if not va or not vb:
                continue
            qa = quartiles(va)
            qb = quartiles(vb)
            dist = abs(qb[1] - qa[1]) / abs(qa[1]) if qa[1] else (
                0.0 if qb[1] == 0 else float("inf"))
            verdict = "" if dist <= bound else "  DISAGREE"
            print(f"{workload:15} {name:22} "
                  f"{'/'.join(f'{x:.4g}' for x in qa):>34} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>34} "
                  f"{dist:7.4f} {bound:6.3f}{verdict}")
            if verdict:
                problems.append(f"{workload} {name}: medians {qa[1]:.6g} vs "
                                f"{qb[1]:.6g} differ by {dist:.2%} > {bound:.0%}")
    return problems


def self_test():
    """The check must pass on jittered copies and fire on a throughput
    drop and on a missing metric."""
    bounds = load_bounds()
    rng = random.Random(11)
    base = {name: 100.0 + 10 * i for i, name in enumerate(bounds)}
    # Jitter moves a median by at most 0.2 bound, so 1.5 bounds must fire.
    drop = max(0.15, 1.5 * bounds["hops_per_s"])

    def write_set(directory, tag, scale_hops=1.0, drop_metric=None):
        paths = []
        for i in range(5):
            metrics = {}
            for name, value in base.items():
                if name == drop_metric:
                    continue
                jitter = 1 + rng.uniform(-0.2, 0.2) * bounds[name]
                if name == "hops_per_s":
                    jitter *= scale_hops
                metrics[name] = {"value": value * jitter, "unit": "x"}
            path = os.path.join(directory, f"{tag}-{i}.json")
            with open(path, "w") as f:
                json.dump({"workload": "w", "ok": True, "metrics": metrics}, f)
            paths.append(path)
        return paths

    with tempfile.TemporaryDirectory() as d:
        a = write_set(d, "a")
        cases = [
            ("same code", write_set(d, "same"), True),
            (f"hops_per_s drop of {drop:.0%}",
             write_set(d, "drop", scale_hops=1 - drop), False),
            ("missing metric", write_set(d, "miss", drop_metric="setup_s"),
             False),
        ]
        failures = []
        for label, b, should_agree in cases:
            print(f"--- self-test: {label}")
            agreed = not compare(a, b, bounds)
            if agreed != should_agree:
                failures.append(label)
    if failures:
        print(f"self-test FAILED: {', '.join(failures)}")
        return 1
    print("self-test ok")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    set_a, set_b = argv[:cut], argv[cut + 1:]
    if not set_a or not set_b:
        print(__doc__, file=sys.stderr)
        return 2
    problems = compare(set_a, set_b, load_bounds())
    for p in problems:
        print(f"PROBLEM: {p}")
    print("sets agree" if not problems else "sets DISAGREE")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
