#!/usr/bin/env python3
"""Compare a fresh BENCH_results.json against a committed baseline.

Usage: bench/bench_diff.py BASELINE FRESH
       bench/bench_diff.py --self-test

Prints per-metric deltas for every bench row shared by both files and
fails (exit 1) when the fresh run is unhealthy:
  * any bench report carries "ok": false, or
  * any individual row carries "ok": false, or
  * a bench present in the baseline is missing from the fresh run, or
  * a deterministic health metric regresses: abort rates
    (abort_rate, lock_conflict_aborts), sync amortization
    (syncs_per_step, sync_batches) or the per-step write set
    (stable_bytes_per_step) growing beyond the tolerance. These
    are simulation-virtual-time metrics — identical on every machine for
    a given build — so a regression is a code change, not noise.

Other numeric drift never fails the diff: several benches measure
wall-clock time, which legitimately varies between machines and runs.
The deltas are printed so a human (or a perf-trajectory tool) can judge
them.
"""
import json
import sys


def flatten_rows(report):
    rows = report.get("rows", [])
    return rows if isinstance(rows, list) else []


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Integer fields that identify a row rather than measure something (sweep
# parameters). Everything non-numeric (mode strings, phase tags, bools)
# is identity too.
ID_FIELDS = {
    "age", "fleet", "steps", "measured_steps", "node_concurrency",
    "param_bytes", "seed", "seed_index", "oldest_age",
    "group_commit_window", "ship_convoy_window", "measured_hops", "hops",
    "mtbc_s",
}

# Deterministic health metrics: an *increase* beyond the tolerance fails
# the diff (lower is better for all of them). Relative slack plus a small
# absolute floor so near-zero baselines don't trip on +1.
GATED_FIELDS = {
    "abort_rate": (0.25, 0.05),
    "lock_conflict_aborts": (0.25, 4),
    "syncs_per_step": (0.10, 0.02),
    "sync_batches": (0.10, 4),
    # A7 delta shipping: migration bytes per agent-hop and participant
    # 2PC syncs per hop are pure virtual-time metrics — growth means the
    # channel cache or the convoy/participant coalescing regressed.
    "bytes_per_hop": (0.10, 64),
    "syncs_per_hop": (0.10, 0.05),
    # A7 pipelined commit: coordinator decision syncs per agent-hop. The
    # decision queue amortizes these well below 1; growth means the
    # pipelined flush (or the PREPARE piggyback feeding it) regressed.
    "coordinator_syncs_per_hop": (0.10, 0.02),
    # A8 crash recovery: bytes replayed to rebuild the record read path
    # is pure virtual-state — growth means segment retirement or the
    # checkpoint low-water mark regressed. recovery_ms is wall-clock of
    # the recovery scan; gated only loosely (machines differ) so an
    # order-of-magnitude blowup still fails.
    "recovery_replayed_bytes": (0.10, 64),
    "recovery_ms": (1.00, 50),
    # A4 step write set: stable-storage bytes per committed local step.
    # Coordinator-local participants persist no prepare record, so a
    # step writes only its commit apply; a reintroduced prepare write
    # roughly doubles this.
    "stable_bytes_per_step": (0.05, 16),
    # Observability latency percentiles (A4 step commit, A7 agent hop):
    # log-bucketed histograms over simulation virtual time — identical
    # per build — so tail growth beyond tolerance is a scheduling or
    # commit-path regression, not noise.
    "step_p95_us": (0.15, 50),
    "step_p99_us": (0.15, 50),
    "hop_p95_us": (0.15, 100),
    "hop_p99_us": (0.15, 100),
}


def gated_regression(field, old, new):
    """Failure message when a health metric regressed, else None."""
    if field not in GATED_FIELDS:
        return None
    rel, abs_slack = GATED_FIELDS[field]
    if new <= old + max(abs(old) * rel, abs_slack):
        return None
    return f"{field} regressed {old} -> {new}"


def row_key(row):
    """Identity of a sweep row: its parameters, not its measurements."""
    parts = []
    for k in sorted(row):
        v = row[k]
        # Structured measurement blocks (the per-cell metrics snapshot)
        # are data, never identity — a changed counter must not unmatch
        # the row it belongs to.
        if isinstance(v, (dict, list)):
            continue
        if k in ID_FIELDS or not is_number(v):
            parts.append(f"{k}={v}")
    return ", ".join(parts)


def diff_rows(bench, baseline_rows, fresh_rows):
    # Rows are matched by identity key (sweep parameters), so a reduced
    # preset diffs cleanly against a full-preset baseline: shared cells
    # are compared, missing cells are noted, never compared cross-cell.
    lines = []
    failures = []
    baseline_by_key = {}
    for row in baseline_rows:
        if isinstance(row, dict):
            baseline_by_key.setdefault(row_key(row), []).append(row)
    matched = 0
    for new in fresh_rows:
        if not isinstance(new, dict):
            continue
        key = row_key(new)
        candidates = baseline_by_key.get(key)
        if not candidates:
            lines.append(f"  [{key}]: new row (no baseline cell)")
            continue
        old = candidates.pop(0)
        matched += 1
        for field in old:
            if field not in new:
                # A gated health metric silently vanishing from the fresh
                # report would otherwise un-gate itself: fail loudly.
                if field in GATED_FIELDS and is_number(old[field]):
                    failures.append(
                        f"{bench}: [{key}] gated metric `{field}` missing "
                        "from the fresh run"
                    )
                continue
            if not (is_number(old[field]) and is_number(new[field])):
                if field in GATED_FIELDS and is_number(old[field]):
                    failures.append(
                        f"{bench}: [{key}] gated metric `{field}` is no "
                        f"longer numeric ({new[field]!r}) in the fresh run"
                    )
                continue
            a, b = old[field], new[field]
            if a == b or field in ID_FIELDS:
                continue
            pct = f" ({(b - a) / a * 100.0:+.1f}%)" if a else ""
            lines.append(f"  [{key}].{field}: {a} -> {b}{pct}")
            regressed = gated_regression(field, a, b)
            if regressed:
                failures.append(f"{bench}: [{key}] {regressed}")
    skipped = sum(len(v) for v in baseline_by_key.values())
    if skipped:
        lines.append(
            f"  {skipped} baseline cell(s) not in this run "
            "(reduced preset), skipped"
        )
    return lines, failures


def health_failures(name, report):
    failures = []
    if report.get("ok") is False:
        failures.append(f"{name}: report ok=false")
    for i, row in enumerate(flatten_rows(report)):
        if isinstance(row, dict) and row.get("ok") is False:
            failures.append(f"{name}: row[{i}] ok=false")
    return failures


def compare(baseline, fresh):
    """All failure messages for `fresh` vs `baseline` (prints the deltas)."""
    failures = []
    for name in baseline:
        if name not in fresh:
            # micro_codec is allowed to be absent (optional dependency).
            if "micro_codec" in name:
                print(f"{name}: absent from fresh run (optional), skipping")
                continue
            failures.append(f"{name}: present in baseline, missing from fresh run")

    for name, report in fresh.items():
        if not isinstance(report, dict):
            continue
        failures.extend(health_failures(name, report))
        if name not in baseline or not isinstance(baseline[name], dict):
            print(f"{name}: new bench (no baseline)")
            continue
        lines, gated = diff_rows(
            name, flatten_rows(baseline[name]), flatten_rows(report)
        )
        failures.extend(gated)
        if lines:
            print(f"{name}:")
            print("\n".join(lines))
        else:
            print(f"{name}: no metric changes")
    return failures


def self_test():
    """Verify the gate fires on a seeded regression and on a vanished
    gated metric, and that the structured metrics block is measurement,
    not row identity."""

    def bench(rows):
        return {"bench": "a7_shipping", "ok": True, "rows": rows}

    base_row = {
        "mode": "delta", "age": 8, "hop_p95_us": 1000, "bytes_per_hop": 500,
        "stable_bytes_per_step": 400.0,
        "metrics": {"scalars": {"ship.delta_ships": 30}},
    }
    baseline = {"a7_shipping": bench([base_row])}

    ok = True

    def expect(label, fresh_rows, want_failure):
        nonlocal ok
        failures = compare(baseline, {"a7_shipping": bench(fresh_rows)})
        fired = bool(failures)
        good = fired == want_failure
        print(f"self-test: {label}: "
              f"{'fires' if fired else 'clean'} "
              f"({'ok' if good else 'UNEXPECTED'})")
        ok &= good

    # Identical run (metrics block drifting is fine): clean.
    expect("clean run", [dict(base_row,
                              metrics={"scalars": {"ship.delta_ships": 31}})],
           want_failure=False)
    # Seeded p95 regression beyond 15% + 100us slack: gate fires.
    expect("seeded hop_p95_us regression",
           [dict(base_row, hop_p95_us=2000)], want_failure=True)
    # Gated metric silently vanishing: gate fires loudly.
    vanished = dict(base_row)
    del vanished["hop_p95_us"]
    expect("vanished gated metric", [vanished], want_failure=True)
    # Within-tolerance drift: clean.
    expect("tolerated drift", [dict(base_row, hop_p95_us=1050)],
           want_failure=False)
    # A step write set regaining its prepare records: gate fires; a few
    # bytes of drift (within 16 B) stay clean.
    expect("seeded stable_bytes_per_step regression",
           [dict(base_row, stable_bytes_per_step=800.0)], want_failure=True)
    expect("tolerated stable_bytes_per_step drift",
           [dict(base_row, stable_bytes_per_step=415.0)], want_failure=False)

    print(f"self-test: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 2


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        baseline = json.load(f)
    with open(argv[2], encoding="utf-8") as f:
        fresh = json.load(f)

    failures = compare(baseline, fresh)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print("\nbench_diff: healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
