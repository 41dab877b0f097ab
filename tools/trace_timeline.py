#!/usr/bin/env python3
"""trace_timeline: stitch per-agent hop timelines from a span dump.

Input is the JSONL span stream the platform emits (bench_a7's
MAR_SPAN_DUMP, or a crash flight-recorder dump — `flight_dump` header
lines are skipped, duplicate span ids from overlapping ring dumps are
deduplicated). Each span is
  {trace_id, span_id, parent, kind, node, agent, begin_us, end_us, note}
with trace_id = agent id, hop spans chained through `parent`, and phase
spans (queue_wait / lock_wait / step_exec / commit_flush) as direct
children of their hop. Ship-side spans (convoy_wait / wire / apply)
nest inside the commit_flush window of the migrating hop and are shown
as detail, not counted as coverage (they would double-count the flush).
Instant records (kind "instant", begin_us == end_us, plus a "name" such
as "step_commit" or "migrate") are the protocol events of the same
rings: they are shown inline in the hop timeline, under the hop during
which they happened, and take no part in phase coverage or parent
resolution.

For every trace the tool prints the hop timeline — node, interval,
duration and the per-phase breakdown — plus a critical-path summary:
how much of the agent's end-to-end latency went to queueing, lock
waits, step execution and commit/shipping.

Usage:
  tools/trace_timeline.py DUMP.jsonl [--trace ID]
  tools/trace_timeline.py --self-check DUMP.jsonl

--self-check validates the causal structure instead of printing it:
every hop's parent resolves within its trace, every trace has exactly
one root, one trace never spans two agents, and the four coverage
phases account for >= 95% of every non-trivial hop's latency. A flight
dump holds one node's ring per `flight_dump` header (a file may append
many, from several worlds): each is checked on its own, and a parent
outside it — a hop of another node, or one the ring already evicted —
is counted as external instead of broken; a trace may then lack its
root, but never have two. Exit 0 when all checks hold, 1 otherwise
(2 = usage).
"""

import argparse
import json
import sys
from collections import defaultdict

INSTANT = "instant"
COVERAGE_KINDS = ("queue_wait", "lock_wait", "step_exec", "commit_flush")
DETAIL_KINDS = ("convoy_wait", "wire", "apply")
MIN_COVERAGE = 0.95
# Hops shorter than this are all-zero-phase edge cases (e.g. a hop
# consumed the instant it was enqueued); coverage is vacuous there.
TRIVIAL_HOP_US = 10


def load_sections(path):
    """Parse a span dump into sections: (flight_dump header, spans) per
    header, or one (None, spans) section for a whole-world dump. Spans are
    deduplicated by span_id within a section."""
    sections = []
    header, by_id = None, {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{path}:{lineno}: bad JSON: {e}", file=sys.stderr)
                sys.exit(2)
            if "event" in obj:  # flight_dump header: a new node ring
                if by_id or header is not None:
                    sections.append((header, by_id))
                header, by_id = obj, {}
                continue
            by_id[obj["span_id"]] = obj
    if by_id or header is not None:
        sections.append((header, by_id))
    return [(h, sorted(b.values(), key=lambda s: s["span_id"]))
            for h, b in sections]


def load_spans(path):
    """All spans of a dump, deduplicated by span_id (a crash flight
    recorder dumps overlapping rings — last occurrence wins)."""
    by_id = {}
    for _, spans in load_sections(path):
        for s in spans:
            by_id[s["span_id"]] = s
    return sorted(by_id.values(), key=lambda s: s["span_id"])


def group_traces(spans):
    traces = defaultdict(list)
    for s in spans:
        traces[s["trace_id"]].append(s)
    return dict(sorted(traces.items()))


def dur(s):
    return s["end_us"] - s["begin_us"]


def hop_phases(hop, children):
    """Per-phase totals of one hop: coverage phases and ship detail."""
    phases = defaultdict(int)
    for c in children:
        if c["kind"] in COVERAGE_KINDS or c["kind"] in DETAIL_KINDS:
            phases[c["kind"]] += dur(c)
    return phases


def build_timeline(trace_spans):
    """(hops sorted by begin, children-by-parent map) of one trace.
    Instant records are nobody's children."""
    children = defaultdict(list)
    for s in trace_spans:
        if s["kind"] != INSTANT:
            children[s["parent"]].append(s)
    hops = [s for s in trace_spans if s["kind"] == "hop"]
    hops.sort(key=lambda s: (s["begin_us"], s["span_id"]))
    return hops, children


def instants_by_hop(hops, trace_spans):
    """Instant records grouped under the last hop opened before them (span
    ids are allocated in one order across spans and instants; index -1:
    before the first hop), in record order."""
    grouped = defaultdict(list)
    for s in trace_spans:
        if s["kind"] != INSTANT:
            continue
        at = -1
        for i, h in enumerate(hops):
            if h["span_id"] < s["span_id"]:
                at = i
        grouped[at].append(s)
    return grouped


def print_instants(instants):
    for s in instants:
        note = f" {s['note']}" if s["note"] else ""
        print(f"         @{s['begin_us']:>10}  N{s['node']}  {s['name']}{note}")


def coverage_of(hop, children):
    """Fraction of the hop's latency its coverage phases explain."""
    total = dur(hop)
    if total <= 0:
        return 1.0
    covered = sum(dur(c) for c in children.get(hop["span_id"], [])
                  if c["kind"] in COVERAGE_KINDS)
    return covered / total


def print_trace(trace_id, trace_spans):
    hops, children = build_timeline(trace_spans)
    if not hops:
        print(f"trace {trace_id}: no hop spans")
        return
    agents = {s["agent"] for s in trace_spans}
    print(f"trace {trace_id} (agent {', '.join(map(str, sorted(agents)))}, "
          f"{len(hops)} hops, "
          f"{hops[0]['begin_us']}..{max(h['end_us'] for h in hops)} us)")
    header = (f"  {'hop':>3}  {'node':>4}  {'begin[us]':>10}  {'dur[us]':>8}  "
              f"{'queue':>7}  {'lock':>6}  {'exec':>7}  {'flush':>8}  "
              f"{'cov%':>5}  detail")
    print(header)
    instants = instants_by_hop(hops, trace_spans)
    print_instants(instants.get(-1, []))
    totals = defaultdict(int)
    grand = 0
    for i, hop in enumerate(hops):
        kids = children.get(hop["span_id"], [])
        phases = hop_phases(hop, kids)
        for k in COVERAGE_KINDS:
            totals[k] += phases.get(k, 0)
        grand += dur(hop)
        cov = coverage_of(hop, children) * 100.0
        detail = " ".join(
            f"{c['kind']}={dur(c)}us" +
            (f"[{c['note']}]" if c["note"] else "")
            for c in kids if c["kind"] in DETAIL_KINDS)
        comp = " comp" if hop["note"] == "comp" else ""
        print(f"  {i:>3}  {hop['node']:>4}  {hop['begin_us']:>10}  "
              f"{dur(hop):>8}  {phases.get('queue_wait', 0):>7}  "
              f"{phases.get('lock_wait', 0):>6}  "
              f"{phases.get('step_exec', 0):>7}  "
              f"{phases.get('commit_flush', 0):>8}  {cov:>5.1f}"
              f"  {detail}{comp}")
        print_instants(instants.get(i, []))
    if grand > 0:
        parts = "  ".join(
            f"{k} {totals[k]} ({totals[k] / grand * 100.0:.1f}%)"
            for k in COVERAGE_KINDS)
        print(f"  critical path: {grand} us total = {parts}")
    print()


def check_spans(spans, ring):
    """Causal-structure problems of one dump section, the number of hops
    whose coverage was checked, and the number of external parents. With
    `ring` (one node's flight dump) parents outside the section are
    external, and a trace need not contain its root."""
    problems = []
    checked_hops = 0
    external = 0
    in_dump = {s["span_id"] for s in spans}
    for trace_id, trace_spans in group_traces(spans).items():
        if trace_id == 0:
            # Node-scoped records (crash, convoy, tx_pipeline,
            # storage_recovery instants) carry no trace id.
            continue
        if all(s["kind"] == INSTANT for s in trace_spans):
            continue  # only protocol events retained: no causal structure
        ids = {s["span_id"] for s in trace_spans if s["kind"] != INSTANT}
        agents = {s["agent"] for s in trace_spans}
        if len(agents) != 1:
            problems.append(
                f"trace {trace_id}: spans from {len(agents)} agents "
                f"({sorted(agents)}) — trace ids must not be shared")
        hops, children = build_timeline(trace_spans)
        if not hops:
            problems.append(f"trace {trace_id}: no hop spans")
            continue
        roots = [h for h in hops if h["parent"] == 0]
        if len(roots) > 1 or (not roots and not ring):
            problems.append(
                f"trace {trace_id}: {len(roots)} root hops (want exactly 1 "
                "launch hop with parent 0)")
        for h in hops:
            if h["parent"] == 0 or h["parent"] in ids:
                continue
            if ring and h["parent"] not in in_dump:
                external += 1
                continue
            problems.append(
                f"trace {trace_id}: hop span {h['span_id']} parent "
                f"{h['parent']} not in this trace — broken causal chain")
        for h in hops:
            if dur(h) < TRIVIAL_HOP_US:
                continue
            checked_hops += 1
            cov = coverage_of(h, children)
            if cov < MIN_COVERAGE:
                problems.append(
                    f"trace {trace_id}: hop span {h['span_id']} on node "
                    f"{h['node']} covered {cov * 100.0:.1f}% "
                    f"(< {MIN_COVERAGE * 100.0:.0f}%) of {dur(h)} us")
    return problems, checked_hops, external


def self_check(path):
    sections = load_sections(path)
    if not any(spans for _, spans in sections):
        print(f"self-check: {path}: no spans", file=sys.stderr)
        return 1
    problems = []
    checked_hops = 0
    external = 0
    traces = 0
    for header, spans in sections:
        found, checked, ext = check_spans(spans, ring=header is not None)
        where = (f"node {header['node']} dump at {header['time_us']} us: "
                 if header is not None else "")
        problems += [where + p for p in found]
        checked_hops += checked
        external += ext
        traces += len(group_traces(spans))
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print(f"self-check: {len(sections)} section(s), {traces} trace(s), "
          f"{checked_hops} hop(s) checked >= {MIN_COVERAGE * 100.0:.0f}% "
          f"phase coverage, {external} parent(s) outside the dump: "
          f"{'OK' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump", help="span dump (JSONL)")
    ap.add_argument("--trace", type=int, default=None,
                    help="print only this trace id")
    ap.add_argument("--self-check", action="store_true",
                    help="validate causal structure and phase coverage")
    args = ap.parse_args()

    if args.self_check:
        sys.exit(self_check(args.dump))

    spans = load_spans(args.dump)
    traces = group_traces(spans)
    if args.trace is not None:
        traces = {k: v for k, v in traces.items() if k == args.trace}
        if not traces:
            print(f"no spans for trace {args.trace}", file=sys.stderr)
            sys.exit(1)
    for trace_id, trace_spans in traces.items():
        if trace_id == 0 and args.trace != 0:
            continue  # node-scoped records
        print_trace(trace_id, trace_spans)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        sys.exit(0)
