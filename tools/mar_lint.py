#!/usr/bin/env python3
"""mar-lint: project-specific invariant checks for src/.

Rules (each with a stable id used in messages and suppressions):

  R1 resource-key-set   Every Resource subclass declares key_set. An
                        undeclared subclass silently falls back to
                        whole-instance locking, defeating per-key
                        concurrency for that resource.
  R2 sync-scope         StableStorage::sync() is called only from the
                        commit machinery (src/tx/, src/storage/). A stray
                        sync bypasses group-commit metering and skews
                        every syncs/step figure the benches report.
  R3 encoder-reserve    A default-constructed serial::Encoder must either
                        grow into a nearby <var>.reserve(...) call or be
                        annotated `// mar-lint: small-frame`. Sized hot
                        paths use Encoder(reserve_hint): one allocation
                        per frame.
  R4 raw-random-time    No rand()/srand()/time()/std::mt19937/
                        std::random_device outside util/rng. All
                        stochastic behaviour flows through mar::Rng so
                        every run is reproducible from a seed.
  R5 event-registered   Every EventKind member (util/span.h) has a
                        to_string case in util/span.cc and every
                        EventKind:: use names a declared member, so event
                        output never prints "?" for a live event.
  R6 no-blocking-wait   No blocking wait primitives (condition_variable,
                        future/promise, sleep loops) inside src/tx/ and
                        src/ship/: the commit pipeline is completion-
                        callback-driven — dwell time is expressed through
                        simulator flush timers, never by blocking the
                        caller. Timer code that must name such a
                        primitive annotates `// mar-lint: flush-timer`.
  R7 record-scope       Record-area mutators (record_reset / record_append
                        / record_erase) are called only from src/storage/
                        and src/tx/. Anywhere else must stage through the
                        tx layer (stage_record_*): a direct mutation
                        bypasses both commit atomicity and the segment-log
                        framing/checkpoint liveness accounting.
  R8 registered-stat    Every RelaxedCounter field declared outside
                        src/util/ is wired into the metrics registry
                        (its name appears in a register_counter /
                        register_gauge call somewhere in src/). An
                        unregistered stat silently vanishes from the
                        uniform metrics snapshot the benches and the
                        flight recorder report. Intentionally private
                        counters annotate
                        `// mar-lint: unregistered-stat`.
  R9 timer-owned        In src/net/, src/tx/, src/ship/ and src/agent/
                        the EventId a schedule_at / schedule_after /
                        after( call returns is kept, so the timer can be
                        cancelled when its reason ends instead of firing
                        later to find nothing to do. A discarded result
                        is allowed only for timers that always do work
                        when they fire (deliveries, same-instant
                        hand-offs), annotated `// mar-lint: one-shot` on
                        the line or the line above. In src/agent/,
                        NodeRuntime::after is exempt by name: its
                        continuations (service delays, backoff, slot
                        dispatch) die with the node's epoch, which a
                        crash bumps; the one schedule call inside it is
                        annotated `// mar-lint: epoch-owned`.
  R10 one-rollback-exit Under src/, a compensate successor record
                        (make_record(..., RecordKind::compensate, ...))
                        and the trailing-savepoint drop loop (a for/while
                        header calling trailing_savepoint()) appear once
                        each, in src/agent/rollback_driver.cc: the rollback
                        driver's one advance toward the savepoint. A
                        second copy is a second rollback tail, free to
                        drift from the first.
  R11 one-agent-copy    Under src/, a registry's create() (a receiver
                        named like a registry: `registry.create(`,
                        `agent_types().create(`) is called only inside
                        decode_agent in src/agent/agent.cc, and nothing
                        copy-assigns through static_cast<Agent&>. Agents
                        come from decode (create, then deserialize) or
                        from clone_agent (the type's copy constructor via
                        TypeRegistry::copy); a create-then-assign copy
                        runs the constructor's slot declarations for
                        nothing and slices any state of the subclass.
  R12 no-step-copy      Under src/, outside src/agent/itinerary.{h,cc},
                        no StepEntry is declared by value (a local, a
                        parameter, or `auto x = current_step(...)` /
                        `step_at(...)`). The itinerary is immutable and
                        outlives every step of the agent, so readers
                        take the entry by const&; a by-value copy costs
                        the method string and, beyond two nodes, a heap
                        block on every step.
  R13 one-slot-exit     Under src/, a record's attempt counter is
                        incremented (`++…attempts`, `attempts… += / ++`)
                        and a `retry_backoff_us` field is read (`.` or
                        `->` access) only inside Scheduler::abort_exit in
                        src/agent/scheduler.cc: the one abort exit of an
                        execution slot. A second copy is a second retry
                        tail, free to drift from the first in what it
                        counts, frees or stashes.

Usage:
  tools/mar_lint.py [--root REPO] [FILES...]   lint src/ (or FILES)
  tools/mar_lint.py --self-test                verify each rule fires on
                                               a seeded violation
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import pathlib
import re
import sys
import tempfile

SRC_EXTENSIONS = {".h", ".cc"}
RESERVE_WINDOW = 30  # lines after a bare Encoder to find .reserve()


def strip_noise(line):
    """Remove // comments and string literal bodies (keeps the quotes)."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return re.sub(r"//.*", "", line)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_source_files(root, explicit):
    if explicit:
        for f in explicit:
            p = pathlib.Path(f)
            if p.suffix in SRC_EXTENSIONS and p.is_file():
                yield p
        return
    for p in sorted((root / "src").rglob("*")):
        if p.suffix in SRC_EXTENSIONS:
            yield p


def rel(root, path):
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# --- R1: every Resource subclass declares key_set --------------------------

SUBCLASS_RE = re.compile(
    r"class\s+(\w+)(?:\s+final)?\s*:\s*public\s+(?:resource::)?Resource\b")


def check_resource_key_set(path, text, findings):
    classes = [(m.group(1), text[: m.start()].count("\n") + 1)
               for m in SUBCLASS_RE.finditer(text)]
    if not classes:
        return
    declares = re.search(r"\bKeySet\s+key_set\s*\(", text) is not None
    for name, line in classes:
        if not declares:
            findings.append(Finding(path, line, "R1",
                                    f"Resource subclass {name} does not "
                                    "declare key_set(); it will always "
                                    "whole-instance lock"))


# --- R2: sync() only under src/tx/ and src/storage/ ------------------------

SYNC_ALLOWED_PREFIXES = ("src/tx/", "src/storage/")
SYNC_RE = re.compile(r"\.\s*sync\s*\(\s*\)")


def check_sync_scope(relpath, path, lines, findings):
    if relpath.startswith(SYNC_ALLOWED_PREFIXES):
        return
    for i, line in enumerate(lines, 1):
        if SYNC_RE.search(strip_noise(line)):
            findings.append(Finding(path, i, "R2",
                                    "StableStorage::sync() outside the "
                                    "commit machinery (src/tx/, "
                                    "src/storage/) bypasses group-commit "
                                    "metering"))


# --- R3: default-constructed Encoder pairs with reserve or annotation ------

BARE_ENCODER_RE = re.compile(r"\bEncoder\s+(\w+)\s*;")


def check_encoder_reserve(path, lines, findings):
    for i, line in enumerate(lines, 1):
        m = BARE_ENCODER_RE.search(strip_noise(line))
        if not m:
            continue
        var = m.group(1)
        here_or_above = line + (lines[i - 2] if i >= 2 else "")
        if "mar-lint: small-frame" in here_or_above:
            continue
        window = lines[i: i + RESERVE_WINDOW]
        if any(re.search(rf"\b{re.escape(var)}\s*\.\s*reserve\s*\(", w)
               for w in window):
            continue
        findings.append(Finding(path, i, "R3",
                                f"default-constructed Encoder `{var}` has "
                                "no reserve hint; pass "
                                "Encoder(encoded_size) or annotate "
                                "`// mar-lint: small-frame`"))


# --- R4: raw randomness / wall-clock outside util/rng ----------------------

RNG_ALLOWED_PREFIXES = ("src/util/rng",)
RAW_RANDOM_RE = re.compile(
    r"(?:(?<![\w.:>])(?:rand|srand|time)\s*\(|std::mt19937|"
    r"std::random_device)")


def check_raw_random(relpath, path, lines, findings):
    if relpath.startswith(RNG_ALLOWED_PREFIXES):
        return
    for i, line in enumerate(lines, 1):
        m = RAW_RANDOM_RE.search(strip_noise(line))
        if m:
            findings.append(Finding(path, i, "R4",
                                    f"raw `{m.group(0).strip()}` outside "
                                    "util/rng breaks seed-reproducibility; "
                                    "draw from mar::Rng"))


# --- R6: no blocking wait primitives in the commit pipeline ----------------

NO_BLOCKING_PREFIXES = ("src/tx/", "src/ship/")
BLOCKING_WAIT_RE = re.compile(
    r"(?:std::condition_variable|std::this_thread::sleep_(?:for|until)|"
    r"std::future\b|std::promise\b|(?<![\w.:>])usleep\s*\(|"
    r"\.\s*wait(?:_for|_until)?\s*\()")


def check_no_blocking_wait(relpath, path, lines, findings):
    if not relpath.startswith(NO_BLOCKING_PREFIXES):
        return
    for i, line in enumerate(lines, 1):
        here_or_above = line + (lines[i - 2] if i >= 2 else "")
        if "mar-lint: flush-timer" in here_or_above:
            continue
        m = BLOCKING_WAIT_RE.search(strip_noise(line))
        if m:
            findings.append(Finding(path, i, "R6",
                                    f"blocking wait `{m.group(0).strip()}` "
                                    "in the commit pipeline; use completion "
                                    "callbacks / simulator flush timers (or "
                                    "annotate `// mar-lint: flush-timer`)"))


# --- R7: record-area mutators only under src/storage/ and src/tx/ ----------

RECORD_ALLOWED_PREFIXES = ("src/storage/", "src/tx/")
# `\.` anchors to a member call, so stage_record_* (the tx staging API)
# never matches: the char after the dot is `s`, not `r`.
RECORD_MUTATOR_RE = re.compile(r"\.\s*record_(?:reset|append|erase)\s*\(")


def check_record_scope(relpath, path, lines, findings):
    if relpath.startswith(RECORD_ALLOWED_PREFIXES):
        return
    for i, line in enumerate(lines, 1):
        m = RECORD_MUTATOR_RE.search(strip_noise(line))
        if m:
            findings.append(Finding(path, i, "R7",
                                    f"record mutator `{m.group(0).strip()})` "
                                    "outside src/storage//src/tx/ bypasses "
                                    "commit atomicity and segment-log "
                                    "liveness; stage via stage_record_*"))


# --- R9: timers in the protocol layers keep their EventId ----------------

TIMER_OWNED_PREFIXES = ("src/net/", "src/tx/", "src/ship/", "src/agent/")
# NodeRuntime's epoch-owned continuations: a crash or recovery bumps the
# node's epoch, which turns every one of them into a no-op, so none can
# outlive its reason by more than the delay it was armed with.
EPOCH_OWNED_PREFIX = "src/agent/"
# A statement that starts with the call: its result is discarded.
DISCARDED_TIMER_RE = re.compile(
    r"^(?:[\w:]+(?:\(\))?\s*(?:\.|->)\s*)*"
    r"(schedule_at|schedule_after|after)\s*\(")
# A previous line ending like this makes the call part of a longer
# expression (an assignment or return split over two lines).
CONTINUED_RE = re.compile(r"(?:=|\(|,|\?|:|&&|\|\||\breturn)\s*$")


def check_timer_owned(relpath, path, lines, findings):
    if not relpath.startswith(TIMER_OWNED_PREFIXES):
        return
    prev = ""
    for i, line in enumerate(lines, 1):
        code = strip_noise(line).strip()
        m = DISCARDED_TIMER_RE.match(code)
        continued = CONTINUED_RE.search(prev) is not None
        if code:
            prev = code
        if not m or continued:
            continue
        epoch_owned = relpath.startswith(EPOCH_OWNED_PREFIX)
        if epoch_owned and m.group(1) == "after":
            continue
        here_or_above = line + (lines[i - 2] if i >= 2 else "")
        if "mar-lint: one-shot" in here_or_above:
            continue
        if epoch_owned and "mar-lint: epoch-owned" in here_or_above:
            continue
        findings.append(Finding(path, i, "R9",
                                f"discarded `{m.group(1)}` result: keep "
                                "the EventId and cancel the timer when "
                                "its reason ends (or annotate a timer "
                                "that always does work `// mar-lint: "
                                "one-shot`)"))


# --- R10: one rollback exit ------------------------------------------------

ROLLBACK_DRIVER = "src/agent/rollback_driver.cc"
ROLLBACK_TAIL_RES = (
    ("compensate successor record",
     re.compile(r"\bmake_record\s*\([^;]*?RecordKind::compensate\b")),
    ("trailing-savepoint drop loop",
     re.compile(r"\b(?:for|while)\s*\((?:[^()]|\([^()]*\))*?"
                r"trailing_savepoint\s*\(")),
)


def check_one_rollback_exit(relpath, path, lines, findings):
    text = "\n".join(strip_noise(line) for line in lines)
    for what, pattern in ROLLBACK_TAIL_RES:
        for n, m in enumerate(pattern.finditer(text)):
            if relpath == ROLLBACK_DRIVER and n == 0:
                continue
            line = text.count("\n", 0, m.start()) + 1
            where = ("repeated in" if relpath == ROLLBACK_DRIVER else
                     "outside")
            findings.append(Finding(path, line, "R10",
                                    f"{what} {where} {ROLLBACK_DRIVER}: "
                                    "advance_rollback is the one rollback "
                                    "exit; route through it"))


# --- R11: one agent copy path -----------------------------------------------

AGENT_CODEC = "src/agent/agent.cc"
REGISTRY_CREATE_RE = re.compile(
    r"\b\w*(?:reg|types)\w*(?:\(\))?\s*(?:\.|->)\s*create\s*\(")
BASE_ASSIGN_RE = re.compile(
    r"\bstatic_cast\s*<\s*(?:(?:mar::)?agent::)?Agent\s*&\s*>\s*"
    r"\((?:[^()]|\([^()]*\))*\)\s*=(?!=)")
DECODE_AGENT_DEF_RE = re.compile(r"\bdecode_agent\s*\([^;{]*\)\s*\{")


def function_bodies(text, definition):
    """(begin, end) offsets of the brace-matched body of every match of
    `definition`, a pattern ending at the body's opening brace."""
    spans = []
    for m in definition.finditer(text):
        depth = 0
        for j in range(m.end() - 1, len(text)):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((m.end(), j))
                    break
    return spans


def check_one_agent_copy(relpath, path, lines, findings):
    text = "\n".join(strip_noise(line) for line in lines)
    allowed = (function_bodies(text, DECODE_AGENT_DEF_RE)
               if relpath == AGENT_CODEC else [])
    for m in REGISTRY_CREATE_RE.finditer(text):
        if any(begin <= m.start() < end for begin, end in allowed):
            continue
        line = text.count("\n", 0, m.start()) + 1
        findings.append(Finding(path, line, "R11",
                                "registry create() outside decode_agent: "
                                "copy an agent with clone_agent (the "
                                "type's copy constructor), decode one "
                                "with decode_agent"))
    for m in BASE_ASSIGN_RE.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        findings.append(Finding(path, line, "R11",
                                "copy-assignment through static_cast<Agent&> "
                                "slices the agent; use clone_agent"))


# --- R12: no StepEntry copies ---------------------------------------------

ITINERARY_FILES = {"src/agent/itinerary.h", "src/agent/itinerary.cc"}
STEP_COPY_RES = (
    re.compile(r"\b(?:(?:mar::)?agent::)?StepEntry\s+\w+\s*[=;{(,)]"),
    re.compile(r"\bauto\s+\w+\s*=[^;=]*?\b(?:current_step|step_at)\s*"
               r"\((?:[^()]|\([^()]*\))*\)\s*;"),
)


def check_no_step_copy(relpath, path, lines, findings):
    if relpath in ITINERARY_FILES:
        return
    for i, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if any(pattern.search(line) for pattern in STEP_COPY_RES):
            findings.append(Finding(path, i, "R12",
                                    "StepEntry copied by value: the "
                                    "itinerary outlives the step, take "
                                    "the entry by const&"))


# --- R13: one slot exit ----------------------------------------------------

SCHEDULER = "src/agent/scheduler.cc"
ABORT_EXIT_DEF_RE = re.compile(r"\bScheduler::abort_exit\s*\([^;{]*\)\s*\{")
SLOT_EXIT_RES = (
    ("attempt counter increment",
     re.compile(r"\+\+\s*(?:\w+(?:\[[^\]]*\])?\s*(?:\.|->)\s*)*"
                r"attempts_?\b|\battempts_?\s*(?:\[[^\]]*\])?\s*"
                r"(?:\+\+|\+=)")),
    ("retry backoff read", re.compile(r"(?:\.|->)\s*retry_backoff_us\b")),
)


def check_one_slot_exit(relpath, path, lines, findings):
    text = "\n".join(strip_noise(line) for line in lines)
    allowed = (function_bodies(text, ABORT_EXIT_DEF_RE)
               if relpath == SCHEDULER else [])
    for what, pattern in SLOT_EXIT_RES:
        for m in pattern.finditer(text):
            if any(begin <= m.start() < end for begin, end in allowed):
                continue
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(path, line, "R13",
                                    f"{what} outside Scheduler::abort_exit "
                                    f"({SCHEDULER}): a slot's record is "
                                    "retried through the one abort exit"))


# --- R8: RelaxedCounter fields registered with the metrics registry --------

COUNTER_FIELD_RE = re.compile(r"\bRelaxedCounter\s+(\w+)\s*;")
REGISTER_CALL_RE = re.compile(
    r"register_(?:counter|gauge)\s*\(([^;]*?)\)\s*;", re.DOTALL)
COUNTER_EXEMPT_PREFIXES = ("src/util/",)


def collect_registered_names(root):
    """Every identifier appearing inside a register_counter/register_gauge
    call, across all of src/ — the registered name string AND the field
    expression both mention the counter's field name."""
    names = set()
    for p in iter_source_files(root, None):
        for m in REGISTER_CALL_RE.finditer(p.read_text()):
            names.update(re.findall(r"\w+", m.group(1)))
    return names


def check_stat_registered(root, findings):
    registered = collect_registered_names(root)
    for p in iter_source_files(root, None):
        relpath = rel(root, p)
        if relpath.startswith(COUNTER_EXEMPT_PREFIXES):
            continue
        lines = p.read_text().split("\n")
        for i, line in enumerate(lines, 1):
            m = COUNTER_FIELD_RE.search(strip_noise(line))
            if not m:
                continue
            here_or_above = line + (lines[i - 2] if i >= 2 else "")
            if "mar-lint: unregistered-stat" in here_or_above:
                continue
            if m.group(1) in registered:
                continue
            findings.append(Finding(relpath, i, "R8",
                                    f"RelaxedCounter `{m.group(1)}` is never "
                                    "registered with the metrics registry; "
                                    "wire it through register_counter / "
                                    "register_gauge (or annotate "
                                    "`// mar-lint: unregistered-stat`)"))


# --- R5: EventKind members registered and uses valid -----------------------

EVENT_ENUM_RE = re.compile(
    r"enum\s+class\s+EventKind\b[^{]*\{(.*?)\}", re.DOTALL)
EVENT_CASE_RE = re.compile(r"case\s+EventKind::(\w+)")
# The to_string(EventKind) definition, up to its closing brace at column 0
# (span.cc switches on EventKind elsewhere too, e.g. to render notes).
EVENT_TO_STRING_RE = re.compile(
    r"to_string\(EventKind\s+\w+\)\s*\{(.*?)\n\}", re.DOTALL)
EVENT_USE_RE = re.compile(r"EventKind::(\w+)")
EVENT_HEADER = ("src", "util", "span.h")
EVENT_IMPL = ("src", "util", "span.cc")


def parse_event_kinds(root):
    header = root.joinpath(*EVENT_HEADER)
    if not header.is_file():
        return None, None
    m = EVENT_ENUM_RE.search(header.read_text())
    if not m:
        return None, None
    members = []
    for raw in m.group(1).split("\n"):
        token = strip_noise(raw.replace("///<", "//")).split(",")[0].strip()
        if token and re.fullmatch(r"\w+", token):
            members.append(token)
    impl = root.joinpath(*EVENT_IMPL)
    body = EVENT_TO_STRING_RE.search(impl.read_text()) \
        if impl.is_file() else None
    cases = set(EVENT_CASE_RE.findall(body.group(1))) if body else set()
    return members, cases


def check_event_registered(root, findings):
    members, cases = parse_event_kinds(root)
    if members is None:
        return
    header = rel(root, root.joinpath(*EVENT_HEADER))
    for member in members:
        if member not in cases:
            findings.append(Finding(header, 1, "R5",
                                    f"EventKind::{member} has no "
                                    "to_string case in util/span.cc; it "
                                    "would render as \"?\""))
    declared = set(members)
    for p in iter_source_files(root, None):
        text = p.read_text()
        for i, line in enumerate(text.split("\n"), 1):
            for use in EVENT_USE_RE.findall(strip_noise(line)):
                if use not in declared:
                    findings.append(Finding(rel(root, p), i, "R5",
                                            f"EventKind::{use} is not a "
                                            "declared event kind"))


# --- driver ----------------------------------------------------------------

def run_lint(root, explicit_files=None):
    findings = []
    for p in iter_source_files(root, explicit_files):
        relpath = rel(root, p)
        text = p.read_text()
        lines = text.split("\n")
        check_resource_key_set(relpath, text, findings)
        check_sync_scope(relpath, relpath, lines, findings)
        check_encoder_reserve(relpath, lines, findings)
        check_raw_random(relpath, relpath, lines, findings)
        check_no_blocking_wait(relpath, relpath, lines, findings)
        check_record_scope(relpath, relpath, lines, findings)
        check_timer_owned(relpath, relpath, lines, findings)
        check_one_rollback_exit(relpath, relpath, lines, findings)
        check_one_agent_copy(relpath, relpath, lines, findings)
        check_no_step_copy(relpath, relpath, lines, findings)
        check_one_slot_exit(relpath, relpath, lines, findings)
    if not explicit_files:
        check_event_registered(root, findings)
        check_stat_registered(root, findings)
    return findings


# --- self-test -------------------------------------------------------------

SEEDED = {
    "src/resource/gadget.h": """
#include "resource/resource.h"
namespace mar::resource {
class Gadget final : public Resource {
 public:
  Result<Value> invoke(std::string_view op, const Value& p, Value& s);
};
}
""",
    "src/agent/rogue.cc": """
#include <cstdlib>
void rogue_sync_and_rand(mar::storage::StableStorage& st) {
  st.sync();
  int r = rand();
  (void)r;
  std::mt19937 gen(42);
  (void)gen;
}
serial::Bytes rogue_encode() {
  serial::Encoder enc;
  enc.write_u64(1);
  return std::move(enc).take();
}
void rogue_event(mar::SpanSink& t) {
  t.event(mar::EventKind::bogus_kind, 0, 0, 0);
}
void rogue_record(mar::storage::StableStorage& st) {
  st.record_append("agentimg:7", {});
}
""",
    "src/tx/rogue_wait.cc": """
#include <condition_variable>
#include <mutex>
void rogue_blocking_commit(std::condition_variable& cv,
                           std::unique_lock<std::mutex>& lk) {
  cv.wait(lk);
}
""",
    "src/net/rogue_timer.cc": """
void mar::net::Rogue::arm(MsgId id) {
  // A guard-and-return timer: fires long after the ack made it moot.
  sim_.schedule_after(retransmit_interval_, [this, id] {
    if (!outbox_.contains(id)) return;
    resend(id);
  });
}
""",
    "src/agent/rogue_timer.cc": """
void mar::agent::Rogue::call(TxId tx) {
  // A reply timeout outside the waiter table: fires long after the reply.
  p_.sim().schedule_after(timeout, [this, tx] {
    if (!waiting_.contains(tx)) return;
    expire(tx);
  });
}
""",
    "src/agent/rogue_rollback.cc": """
void mar::agent::Rogue::finish(TxId tx, const QueueRecord& rec, Agent& a) {
  // A second rollback tail beside the driver's advance.
  auto& log = a.log();
  for (auto sp = log.trailing_savepoint(); sp.has_value();
       sp = log.trailing_savepoint()) {
    (void)log.pop();
  }
  QueueRecord next =
      make_record(a, RecordKind::compensate, rec.rollback_target);
  hand_off(tx, rec, std::move(next));
}
""",
    "src/agent/rogue_clone.cc": """
std::unique_ptr<Agent> rogue_clone(const AgentTypeRegistry& registry,
                                   const Agent& agent) {
  // Create-then-assign: declares every slot, then overwrites the base.
  auto copy = registry.create(agent.type_name());
  static_cast<Agent&>(*copy) = agent;
  return copy;
}
""",
    "src/agent/rogue_step.cc": """
void mar::agent::Rogue::run(const std::shared_ptr<Agent>& agent) {
  // Two per-step copies of an entry the itinerary already holds.
  const StepEntry step = current_step(*agent);
  auto again = agent->itinerary().step_at(agent->position());
  agent->run_step(step.method, again.method);
}
""",
    "src/agent/rogue_retry.cc": """
void mar::agent::Rogue::retry(const QueueRecord& rec) {
  // A second abort tail beside the scheduler's.
  ++attempts_[rec.record_id];
  const auto backoff = p_.config().retry_backoff_us +
                       p_.rng().next_below(p_.config().retry_backoff_us + 1);
  after(backoff, [this] { pump(); });
}
""",
    "src/net/rogue_stats.h": """
#include "util/counters.h"
namespace mar::net {
struct RogueStats {
  RelaxedCounter frames_dropped;  // never registered anywhere
};
}
""",
}

CLEAN = {
    "src/agent/good.cc": """
void good(mar::sim::Simulator& sim) {
  const auto now = sim.time();  // member access: not wall-clock time()
  (void)now;
  serial::Encoder sized(64);
  sized.write_u64(now);
  serial::Encoder grown;
  grown.reserve(128);
  serial::Encoder tiny;  // mar-lint: small-frame
  (void)tiny;
}
void good_staged_record(mar::tx::TxHandle& tx) {
  // Staging through the tx layer is the sanctioned path outside storage.
  tx.stage_record_reset("agentimg:7", {});
  tx.stage_record_append("agentimg:7", {});
  tx.stage_record_erase("agentimg:7");
}
""",
    "src/tx/good_timer.cc": """
void good_flush_timer(mar::sim::Simulator& sim, mar::FlushHelper& helper) {
  // Dwell is a simulator timer, never a blocking wait; its id is kept.
  helper.flush = sim.schedule_after(100, [] {});
  helper.hot =
      sim.schedule_after(0, [] {});
  // mar-lint: one-shot (a delivery)
  sim.schedule_after(5, [&helper] { helper.deliver(); });
  helper.cv.wait(helper.lk);  // mar-lint: flush-timer
  auto pending = helper.awaiting_.find(7);  // `awaiting_` is not a wait
  (void)pending;
}
""",
    "src/agent/good_timer.cc": """
void mar::agent::Good::call(TxId tx) {
  after(service, [this, tx] { serve(tx); });  // dies with the epoch
  waiter.timeout = p_.sim().schedule_after(timeout, [this, tx] {
    expire(tx);
  });
  // mar-lint: epoch-owned (a crash bumps the epoch)
  p_.sim().schedule_after(delay, [this, epoch] { run(epoch); });
}
""",
    "src/agent/rollback_driver.cc": """
void mar::agent::NodeRuntime::advance_rollback(TxId tx, Agent& a) {
  auto& log = a.log();
  for (auto sp = log.trailing_savepoint(); sp.has_value() && *sp != target;
       sp = log.trailing_savepoint()) {
    (void)log.pop();
  }
  if (log.trailing_savepoint() == target) return;
  QueueRecord next = make_record(a, RecordKind::compensate, target);
  hand_off(tx, std::move(next));
}
""",
    "src/agent/good_rollback.cc": """
void good_resume(mar::agent::Agent& a, SavepointId target) {
  // Reading the trailing savepoint and making other records is fine.
  if (a.log().trailing_savepoint() == target) {
    auto rec = make_record(a, RecordKind::execute, SavepointId::invalid());
    (void)rec;
  }
}
""",
    "src/agent/agent.cc": """
std::unique_ptr<Agent> decode_agent(AgentTypeRegistry& registry,
                                    std::span<const std::uint8_t> bytes) {
  serial::Decoder dec(bytes);
  const auto type = dec.read_string_view();
  if (!registry.contains(type)) throw serial::DecodeError("unknown type");
  auto agent = registry.create(type);
  agent->deserialize(dec, registry.itineraries_);
  return agent;
}
std::unique_ptr<Agent> clone_agent(const AgentTypeRegistry& registry,
                                  const Agent& agent) {
  auto copy = registry.copy(agent.type_name(), agent);
  if (static_cast<const Agent&>(*copy) == agent) copy->mark();
  return copy;
}
""",
    "src/agent/good_step.cc": """
void mar::agent::Good::run(const std::shared_ptr<Agent>& agent) {
  const StepEntry& step = current_step(*agent);
  const auto& again = agent->itinerary().step_at(agent->position());
  const auto dest = current_step(*agent).primary();
  agent->run_step(step.method, again.method, dest);
}
""",
    "src/agent/itinerary.cc": """
Itinerary& Itinerary::step(std::string method, NodeId node) {
  StepEntry entry{std::move(method), NodeList(node), {}};
  entries_.emplace_back(std::move(entry));
  return *this;
}
""",
    "src/agent/scheduler.cc": """
std::optional<sim::TimeUs> Scheduler::abort_exit(
    const storage::QueueRecord& rec, Attempt attempt, std::uint64_t now) {
  Entry& e = table_[rec.record_id];
  if (attempt != Attempt::uncounted) ++e.attempts;
  return config_.retry_backoff_us +
         rng_.next_below(config_.retry_backoff_us + 1);
}
std::uint32_t Scheduler::attempts(std::uint64_t record_id) const {
  const auto max = config_.max_compensation_attempts;  // not the counter
  return table_.at(record_id).attempts + max;
}
""",
    "src/net/good_stats.h": """
#include "util/counters.h"
namespace mar::net {
struct GoodStats {
  RelaxedCounter frames_sent;
  RelaxedCounter scratch_probe;  // mar-lint: unregistered-stat
};
}
""",
    "src/net/good_stats.cc": """
void wire_metrics(mar::MetricsRegistry& m, mar::net::GoodStats& s) {
  m.register_counter("net.frames_sent", &s.frames_sent);
}
""",
}


def self_test():
    with tempfile.TemporaryDirectory(prefix="mar-lint-") as td:
        root = pathlib.Path(td)
        real_root = pathlib.Path(__file__).resolve().parent.parent
        for parts in (EVENT_HEADER, EVENT_IMPL):
            src = real_root.joinpath(*parts)
            dst = root.joinpath(*parts)
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_text(src.read_text())
        for name, body in {**SEEDED, **CLEAN}.items():
            dst = root / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_text(body)

        findings = run_lint(root)
        fired = {f.rule for f in findings}
        expected = {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8",
                    "R9", "R10", "R11", "R12", "R13"}
        ok = True
        for rule in sorted(expected):
            status = "fires" if rule in fired else "MISSED"
            print(f"self-test: {rule} {status}")
            ok &= rule in fired
        # Each layer R9 covers must be checked, not just one of them.
        for layer in ("src/net/", "src/agent/"):
            hit = any(f.rule == "R9" and str(f.path).startswith(layer)
                      for f in findings)
            print(f"self-test: R9 in {layer} "
                  f"{'fires' if hit else 'MISSED'}")
            ok &= hit
        false_pos = [f for f in findings
                     if "good" in str(f.path) or
                     str(f.path).endswith(("rollback_driver.cc",
                                           "agent/agent.cc",
                                           "itinerary.cc",
                                           "agent/scheduler.cc"))]
        for f in false_pos:
            print(f"self-test: FALSE POSITIVE {f}")
        ok &= not false_pos
        # The seeded tree must make a plain run exit non-zero.
        ok &= bool(findings)
        print(f"self-test: seeded tree yields {len(findings)} finding(s), "
              f"plain run would exit {1 if findings else 0}")
        return 0 if ok else 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule fires on a seeded violation")
    ap.add_argument("files", nargs="*",
                    help="specific files to lint (default: all of src/)")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"mar-lint: no src/ under {root}", file=sys.stderr)
        sys.exit(2)

    findings = run_lint(root, args.files or None)
    for f in findings:
        print(f)
    print(f"mar-lint: {len(findings)} finding(s) in "
          f"{'%d file(s)' % len(set(str(f.path) for f in findings)) if findings else 'src/'}")
    sys.exit(1 if findings else 0)


if __name__ == "__main__":
    main()
