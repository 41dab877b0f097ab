// Causal spans, protocol events and the per-node flight recorder: the
// platform's one event model (DESIGN.md §12).
//
// Spans record *where time went*. Every step/migration carries a
// (trace_id, span_id, parent_span) context — trace_id is minted once per
// agent at launch, each executed hop opens a root "hop" span, and the
// phases inside it (queue-wait, lock-wait, step-exec, group-commit-flush,
// convoy-wait, wire, apply) are children. The context piggybacks on the
// existing QueueRecord, so it rides ship.convoy frames and prepared tx
// markers without new message types; tools/trace_timeline.py stitches
// the spans of all nodes back into per-agent hop timelines. Instant
// records (SpanKind::instant) in the same rings record *what happened*:
// the paper's protocol events, each an EventKind plus integer fields,
// rendered as text only on print or dump. Per-(node, kind) event totals
// live beside the rings as relaxed counters that ring eviction never
// loses.
//
// The sink doubles as the flight recorder: records land in bounded
// per-node ring buffers, and on a crash, CorruptionError or
// LockAuditError the owning runtime dumps the node's recent ring as
// JSONL for post-mortem reading. Timestamps are simulation time, so a
// dump is deterministic for a seed.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/counters.h"

namespace mar {

/// The phase taxonomy. One span kind per place a hop can spend time, plus
/// the zero-length instant that carries a protocol event.
enum class SpanKind : std::uint8_t {
  hop,             ///< root: record enqueued -> step transaction committed
                   ///< (code 1: a compensating hop)
  queue_wait,      ///< enqueued at the node -> claimed by an execution slot
  lock_wait,       ///< lock-conflict abort -> the retry's re-claim
  step_exec,       ///< application step body (service time)
  commit_flush,    ///< commit_async -> completion (group-commit flush wait;
                   ///< for migrations includes the shipping round trip)
  convoy_wait,     ///< transfer staged -> its convoy dispatched
  wire,            ///< convoy sent -> received (value: wire bytes)
  apply,           ///< receiver-side staging of a shipped record
                   ///< (code 1: reconstructed from a delta)
  instant,         ///< a protocol event (Span::event), begin == end
};

[[nodiscard]] std::string_view to_string(SpanKind k);

/// Protocol events, roughly one per action of the paper's mechanism. The
/// integer fields each kind fills are listed with it; unlisted fields
/// are 0.
enum class EventKind : std::uint8_t {
  step_begin,       ///< step transaction started (value: record id)
  step_commit,      ///< step transaction committed (value: record id;
                    ///< code 1: the agent finished)
  step_abort,       ///< step transaction aborted (value: record id; code:
                    ///< Errc cause, ok = the application asked to roll back)
  migrate,          ///< agent enqueued at another node within a tx (value:
                    ///< destination node, value2: payload bytes; code:
                    ///< MigrateCause)
  savepoint,        ///< savepoint entry written (value: savepoint id;
                    ///< code: kSavepointLightweight | kSavepointDelta)
  rollback_begin,   ///< partial rollback initiated (value: target
                    ///< savepoint; code: QueueRecord::Completion)
  comp_begin,       ///< compensation transaction started (value: target)
  comp_op,          ///< compensating operation executed on the node
                    ///< (code: Errc result; agent: the rolling-back
                    ///< agent, none for an op served for rce/mce.exec)
  comp_commit,      ///< compensation transaction committed
  comp_abort,       ///< compensation transaction aborted (code: Errc cause)
  restore,          ///< strongly reversible objects restored (value: sp id)
  rollback_done,    ///< rollback reached its target (value: savepoint id;
                    ///< code: QueueRecord::Completion)
  rce_shipped,      ///< resource compensation entries shipped (optimized;
                    ///< value: destination node, value2: wire bytes)
  mce_shipped,      ///< mixed step's entries + weak state shipped
                    ///< (adaptive; value: destination, value2: wire bytes)
  convoy,           ///< batched transfers left for one destination (value:
                    ///< destination node, value2: wire bytes)
  log_discard,      ///< whole rollback log discarded (value: entries)
  sp_gc,            ///< savepoint entry garbage-collected (value: sp id)
  crash,            ///< node crashed
  recover,          ///< node recovered
  tx_pipeline,      ///< commit-pipeline transition (value: tx id; code:
                    ///< TxStage)
  storage_recovery, ///< record-log recovery scan (value: replayed bytes,
                    ///< value2: segments scanned)
};
inline constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::storage_recovery) + 1;

[[nodiscard]] std::string_view to_string(EventKind k);

/// Why an agent moved (EventKind::migrate code).
enum class MigrateCause : std::uint8_t {
  step, launch, rollback, cancel, resume
};
/// Commit-pipeline transitions (EventKind::tx_pipeline code).
enum class TxStage : std::uint8_t {
  decided, flushed, acked, ckpt_begin, ckpt_done
};
/// EventKind::savepoint code bits.
inline constexpr std::uint8_t kSavepointLightweight = 1;
inline constexpr std::uint8_t kSavepointDelta = 2;

/// One ring slot: a span or an instant. Trivially copyable — recording
/// is a slot store, never an allocation.
struct Span {
  std::uint64_t trace_id = 0;  ///< one per agent execution (launch-minted)
  std::uint64_t span_id = 0;   ///< allocation order across spans + instants
  std::uint64_t parent = 0;    ///< 0 = root
  SpanKind kind = SpanKind::hop;
  EventKind event = EventKind::step_begin;  ///< instants only
  std::uint8_t code = 0;       ///< small enum / flag field (see the kinds)
  std::uint32_t node = 0;
  std::uint64_t agent = 0;     ///< AgentId value; 0 when not agent-bound
  std::uint64_t begin_us = 0;  ///< simulation time
  std::uint64_t end_us = 0;
  std::uint64_t value = 0;     ///< integer payload (see the kinds)
  std::uint64_t value2 = 0;

  /// The integer fields rendered as text ("412 bytes", "to=2 bytes=412").
  [[nodiscard]] std::string note() const;
  void write_jsonl(std::ostream& os) const;
};
static_assert(std::is_trivially_copyable_v<Span>);

/// Collects finished spans and protocol events into bounded per-node
/// rings. The rings are NOT mutex-guarded: records are written and read
/// only from the single thread that owns the world — a hop emits several
/// records, so the record path must stay at store-into-a-slot cost. Read
/// the rings after the world quiesces. The event counts are relaxed
/// atomics and may be polled from any thread once the world's nodes are
/// added. Span ids come from one deterministic counter per sink — a world
/// owns exactly one sink, so ids are stable for a seed regardless of host
/// thread count.
class SpanSink {
 public:
  /// Next span id (starts at 1; 0 means "no parent"). Ids are allocated
  /// when a span opens so children can parent to it before it closes.
  std::uint64_t next_id() { return next_id_++; }

  void record(const Span& span);
  /// Count a protocol event on `node` and, when enabled, retain it as an
  /// instant record at `time_us` (trace_id = agent).
  void event(EventKind kind, std::uint32_t node, std::uint64_t agent,
             std::uint64_t time_us, std::uint64_t value = 0,
             std::uint64_t value2 = 0, std::uint8_t code = 0);

  /// Size the event-count table to cover `node`. The platform calls it
  /// when a node is added, so the record path never resizes the table a
  /// monitor thread may be reading.
  void add_node(std::uint32_t node);

  /// Whether records are retained. Event counts are kept either way.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Per-node ring capacity; oldest records fall off beyond it. Resets
  /// the retained rings — configure before recording.
  void set_capacity(std::size_t cap);

  /// Events of `kind` ever recorded — world total, or one node's.
  [[nodiscard]] std::uint64_t count(EventKind kind) const;
  [[nodiscard]] std::uint64_t count(EventKind kind, std::uint32_t node) const;

  /// Retained records (spans and instants).
  [[nodiscard]] std::size_t size() const;
  /// All retained records, allocation (span_id) order.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<Span> of_kind(SpanKind kind) const;
  /// Retained instants of one event kind, in order.
  [[nodiscard]] std::vector<Span> of_kind(EventKind kind) const;

  /// Render the retained instants, one protocol event per line.
  void print(std::ostream& os) const;
  /// JSONL dump of every retained record, span_id order (all nodes).
  /// Notes are labels and integers, so nothing needs JSON escaping.
  void dump(std::ostream& os) const;
  /// Flight-recorder dump: one header line naming the reason (a fixed
  /// label: "crash", "corruption", "lock_audit"), then the node's
  /// retained ring in span_id order.
  void dump_node(std::uint32_t node, std::string_view reason,
                 std::uint64_t time_us, std::ostream& os) const;

 private:
  /// A bounded circular buffer: grows to `capacity_` then overwrites in
  /// place — zero allocations on the steady-state hot path (a deque
  /// would malloc a chunk every few records). `head` is the oldest slot
  /// once full; logical order is recovered by sorting on span_id.
  struct Ring {
    std::vector<Span> buf;
    std::size_t head = 0;
  };

  void store(const Span& span);
  /// Oldest-first copy of one ring.
  static void append_in_order(const Ring& ring, std::vector<Span>& out);

  /// Rings indexed by node id (node ids are small dense integers; an
  /// index beats a map lookup on the record path). Grown on demand.
  std::vector<Ring> rings_;
  /// Event totals, [node * kEventKinds + kind]; sized by add_node.
  std::vector<RelaxedCounter> counts_;
  std::uint64_t next_id_ = 1;
  std::size_t capacity_ = 4096;
  bool enabled_ = true;
};

}  // namespace mar
