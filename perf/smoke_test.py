#!/usr/bin/env python3
"""Smoke test of mar_perf (run by ctest in the perf/ build tree).

    python3 smoke_test.py <mar_perf binary> <BENCHMARK.json>

Runs every workload at --scale 0.02, untraced twice and traced once. Each
run must exit 0 and report ok with every metric of BENCHMARK.json present,
finite and in its unit. The deterministic metrics (simulated latencies,
bytes, syncs, counts) must be identical across the three runs, which shows
the bench-side timers do not perturb the simulation.
"""
import json
import math
import os
import subprocess
import sys
import tempfile


def run(binary, workload, traced, out_dir, tag):
    path = os.path.join(out_dir, f"{workload}-{tag}.json")
    cmd = [binary, "--workload", workload, "--seed", "1", "--scale", "0.02",
           "--json", path]
    if traced:
        cmd.append("--traced")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stdout}{done.stderr}")
    with open(path) as f:
        return json.load(f)


def check_metrics(report, wanted, section, label):
    for m in wanted:
        got = report[section].get(m["name"])
        assert got is not None, f"{label}: {m['name']} missing"
        assert isinstance(got["value"], (int, float)) and math.isfinite(
            got["value"]), f"{label}: {m['name']} = {got['value']}"
        assert got["unit"] == m["unit"], (
            f"{label}: {m['name']} in {got['unit']}, want {m['unit']}")


def main(binary, benchmark_json):
    with open(benchmark_json) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as out_dir:
        for w in spec["workloads"]:
            name = w["name"]
            first = run(binary, name, False, out_dir, "u1")
            second = run(binary, name, False, out_dir, "u2")
            traced = run(binary, name, True, out_dir, "t")
            for label, report in (("u1", first), ("u2", second),
                                  ("traced", traced)):
                assert report["ok"], f"{name} {label}: not ok"
                assert report["failed"] == 0, f"{name} {label}: failures"
                check_metrics(report, spec["end_to_end"], "metrics",
                              f"{name} {label}")
            check_metrics(traced, spec["per_layer"], "layers",
                          f"{name} traced")
            det = first["deterministic"]
            assert second["deterministic"] == det, (
                f"{name}: untraced runs differ")
            differ = [k for k, v in det.items()
                      if traced["deterministic"].get(k) != v]
            assert not differ, f"{name}: tracing changed {differ}"
            print(f"{name}: ok ({len(det)} deterministic metrics agree)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
