// The agent platform: a Mole-like distributed runtime over the simulated
// network, implementing
//
//   * the exactly-once step execution protocol of ref [11] (stable input
//     queues, step transactions, abort/restart, alternative nodes), and
//   * the paper's partial-rollback mechanism, in both the basic (Fig. 4)
//     and the optimized (Fig. 5) variant, integrated with hierarchical
//     itineraries (Sec. 4.4.2).
//
// A Platform owns one NodeRuntime per node; agents are launched once and
// then live exclusively in stable queue records, moving between nodes
// inside distributed transactions.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "agent/agent.h"
#include "net/network.h"
#include "resource/resource.h"
#include "rollback/comp_registry.h"
#include "sim/simulator.h"
#include "storage/segment_log.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/span.h"

namespace mar::agent {

class NodeRuntime;

/// Which rollback algorithm the platform runs.
enum class RollbackStrategy {
  basic,      ///< Fig. 4: agent travels to every compensated step's node
  optimized,  ///< Fig. 5: EOS mixed-flag, RCE shipping, ACE∥RCE overlap
  /// Sec. 4.4.1 "further optimizations": like `optimized`, but for steps
  /// WITH mixed compensation entries the platform consults the ref [16]
  /// performance model and, when cheaper, keeps the agent where it is and
  /// ships the step's operation entries together with a snapshot of the
  /// weakly reversible objects to the resource node instead (the paper's
  /// "resource compensation objects ... transferred" / RPC option). The
  /// updated weak state returns with the acknowledgement and is merged
  /// into the agent before the compensation transaction commits.
  adaptive,
};

/// How strongly reversible objects are physically logged (Sec. 4.2).
enum class LoggingMode { state, transition };

struct PlatformConfig {
  RollbackStrategy strategy = RollbackStrategy::optimized;
  LoggingMode logging = LoggingMode::state;

  /// Queue records a node processes concurrently (execution slots). The
  /// exactly-once protocol already isolates concurrent steps through
  /// transactions and resource locks, so raising this multiprograms a node:
  /// slots claim records by id (per-agent exclusion, FIFO otherwise), lock
  /// conflicts abort the loser's transaction into backoff/retry, and a
  /// crash invalidates every in-flight slot at once. 1 reproduces the
  /// classic one-record-at-a-time runtime bit-for-bit.
  std::uint32_t node_concurrency = 1;

  /// Compiled-in concurrency validator (resource/lock_audit.h): mirror
  /// every lock grant, conflict and release into a per-node LockAudit that
  /// maintains per-transaction held-key sets, the global acquisition-order
  /// graph and the wait-for graph, and hard-fails on a wait-for cycle with
  /// the full cycle printed. Defaults to on in debug builds (the tsan CI
  /// job runs the whole suite with it armed) and off in release, where the
  /// tier-1 envelope must stay bit-identical and unslowed; tests can force
  /// it on either way.
#ifdef NDEBUG
  bool lock_audit = false;
#else
  bool lock_audit = true;
#endif

  /// Group commit: local step-transaction commits enter a queue that is
  /// flushed — participants applied, one metered stable-storage sync,
  /// callbacks — once this many commits are pending or after
  /// group_commit_flush_us. Amortizes the per-commit sync across the
  /// slots of a busy node (syncs/step < 1). The same window batches the
  /// rest of 2PC: coordinator decisions, and PARTICIPANT-side prepares
  /// and commit-applies, share one metered sync per flush (votes/acks
  /// leave only after the batched sync), with crash-before-flush
  /// presuming abort exactly like the local queue. 1 flushes each
  /// commit at once, through the same pipeline.
  std::uint32_t group_commit_window = 4;
  sim::TimeUs group_commit_flush_us = 100;

  // --- delta-shipping migrations (src/ship/) --------------------------------
  // Migrations between a node pair ship as base+delta: each (src, dst)
  // transfer channel caches the last full image shipped per agent
  // (epoch- and hash-tagged); subsequent migrations of that agent over
  // the same pair ship only the delta against the cached base, with
  // automatic fallback to a full image on cache miss, receiver epoch
  // mismatch, base-hash divergence or an unprofitable delta.
  /// Per-node byte budget of each shipment cache side (send channels,
  /// receive channels), counted in serialized base-image bytes — the
  /// decoded agent each base memoizes is not counted. Least-recently-used
  /// bases are evicted beyond it. Independently of the budget, a base
  /// goes once the agent's remaining route cannot cross its channel again
  /// and when the agent terminates (DESIGN.md §6). 0 caches no base, so
  /// every migration ships as a full image.
  std::size_t ship_cache_bytes = 4u << 20;
  /// Ship a delta only while delta/full-image size stays below this
  /// ratio; larger deltas fall back to (and re-establish) the base.
  double ship_delta_max_ratio = 0.5;
  /// Convoy batching: remote stages decided toward the same destination
  /// within this window ride ONE convoy message (and their participant
  /// 2PC syncs coalesce, see group_commit_window). 1 sends immediately.
  std::uint32_t ship_convoy_window = 1;

  /// Incremental durability (the Sec. 4.2 transition-logging idea applied
  /// to the commit path itself): when an agent's next step runs on the
  /// SAME node, commit only a delta — the step's appended log entries and
  /// dirty data-space slots — into an append-only stable record instead of
  /// rewriting the full agent image. Full images are still written on
  /// migration, spawn, rollback and periodic compaction. false reproduces
  /// the full-image-per-step durability path bit for bit.
  bool incremental_commit = true;
  /// Compact an agent's append-only record back to a single full image
  /// after this many delta segments (bounds recovery replay length and
  /// stale-segment space). Minimum 1.
  std::uint32_t compaction_interval_steps = 32;

  // --- segmented record log + crash recovery (src/storage/segment_log.h) ---
  // Each node's record area lives in rotated, CRC32-framed log segments:
  // recovery replays the log (detecting torn tails and mid-log damage by
  // checksum) and fuzzy checkpoints bound how much of it.
  /// Rotation threshold for one log segment.
  std::size_t segment_bytes = 16 * 1024;
  /// Begin a fuzzy checkpoint whenever at least this many record-log
  /// bytes accumulated since the last one; completion rides the
  /// group-commit flush timers so the commit pipeline never stalls.
  /// 0 disables checkpoints (recovery replays the whole retained log —
  /// the unbounded-replay envelope bench_a8/e6 measure against).
  /// Off by default: the periodic O(state) snapshot writes would skew
  /// steady-state byte meters (A5); recovery-focused runs opt in.
  std::size_t checkpoint_interval_bytes = 0;
  /// Crash-time storage damage injected on every node-down transition
  /// (tests / CI fault matrix). none leaves crashes clean.
  storage::StorageFault storage_fault = storage::StorageFault::none;

  /// Write savepoints automatically when entering sub-itineraries and
  /// garbage-collect / discard per Sec. 4.4.2.
  bool itinerary_savepoints = true;
  bool gc_savepoints = true;
  bool discard_log_on_top_level = true;

  /// Simulated service time per resource operation within a step, and per
  /// compensating operation (drives the concurrency experiment E3).
  sim::TimeUs resource_op_service_us = 200;
  sim::TimeUs comp_op_service_us = 500;

  /// Backoff before retrying an aborted step/compensation transaction.
  sim::TimeUs retry_backoff_us = 25'000;
  /// Extra slack on top of the expected transfer time before an
  /// unacknowledged remote stage / RCE shipment is abandoned and the
  /// transaction retried (possibly on an alternative node). 0 disables
  /// timeouts (wait for recovery forever).
  sim::TimeUs stage_timeout_us = 2'000'000;
  /// Abort the rollback (fail the agent) after this many failed attempts
  /// of one compensation transaction; 0 = retry forever (the paper's
  /// baseline assumption under transient faults).
  std::uint32_t max_compensation_attempts = 0;

  // --- observability (DESIGN.md §12) ----------------------------------------
  /// Causal hop tracing: record per-phase spans (queue-wait, lock-wait,
  /// step-exec, commit-flush, convoy-wait, wire, apply) and
  /// protocol-event instants into the platform's SpanSink. The trace
  /// context still rides every QueueRecord either way (it is part of the
  /// durable format), and per-kind event counts are always kept; this only
  /// gates record retention. Default on — the overhead budget is ≤3% of
  /// bench_a4 wall time, measured by that bench's `overhead` phase.
  bool span_tracing = true;
  /// Flight recorder: retained records (spans and protocol events) per
  /// node (ring buffer); the oldest fall off beyond this.
  std::size_t flight_recorder_spans = 4096;
  /// When non-empty, a node that crashes or throws CorruptionError /
  /// LockAuditError appends its retained span ring to this file as JSONL
  /// (one flight_dump header line, then spans). Empty disables dumping —
  /// the recorder still runs, tests/tools can dump it explicitly.
  std::string flight_dump_path;
};

/// Terminal (or current) state of a launched agent.
struct AgentOutcome {
  enum class State { running, done, failed, cancelled };
  State state = State::running;
  Status status;
  serial::Bytes final_agent;  ///< captured state at completion
  NodeId final_node;
  sim::TimeUs finished_at = 0;
};

class Platform {
 public:
  Platform(sim::Simulator& sim, net::Network& net, PlatformConfig config = {},
           std::uint64_t seed = 42);
  ~Platform();
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // --- world setup -----------------------------------------------------------
  /// Create a node runtime and register it with the network.
  NodeRuntime& add_node(NodeId id);
  [[nodiscard]] NodeRuntime& node(NodeId id);
  [[nodiscard]] AgentTypeRegistry& agent_types() { return agent_types_; }
  [[nodiscard]] rollback::CompensationRegistry& compensations() {
    return comp_registry_;
  }

  // --- agent lifecycle ---------------------------------------------------------
  /// Validate the agent's (main) itinerary, assign an id, write the
  /// initial savepoints and place the agent in its first node's queue.
  Result<AgentId> launch(std::unique_ptr<Agent> agent);

  // --- multi-agent executions (Sec. 6 future work) ----------------------------
  /// Prepare a child agent spawned by `parent` during a step on `where`:
  /// validate, assign an id, set the result target and write the initial
  /// savepoints. The caller stages the launch record transactionally.
  Result<AgentId> prepare_child(Agent& child, AgentId parent, NodeId where,
                                NodeId result_node, std::string result_key);
  /// Children spawned by `parent`, in spawn order (committed spawns only
  /// are guaranteed to have run; see NodeRuntime::complete_step).
  [[nodiscard]] std::vector<AgentId> children_of(AgentId parent) const;
  /// Request eventual cancellation of a running agent: at its next step
  /// boundary the platform rolls it back completely (to its oldest
  /// savepoint — possible only while "the first sub-itinerary of the main
  /// itinerary" executes, Sec. 4.4.2) and terminates it as `cancelled`.
  void request_cancel(AgentId id);
  [[nodiscard]] bool cancel_requested(AgentId id) const;
  void clear_cancel(AgentId id);
  /// The compensating operation behind spawn entries ("sys.cancel_child"):
  /// cancel a running child, or re-inject an already finished one as a
  /// compensating execution that rolls its committed effects back.
  Status cancel_child(AgentId child);
  /// Drop all bookkeeping for an agent whose spawn never committed.
  void forget_agent(AgentId id);

  [[nodiscard]] const AgentOutcome& outcome(AgentId id) const;
  [[nodiscard]] bool finished(AgentId id) const;
  /// Drive the simulation until the agent finishes (or events drain).
  /// Returns true when the agent reached a terminal state.
  bool run_until_finished(AgentId id);
  /// Drive the simulation until EVERY listed agent finishes (or events
  /// drain). Returns true when all reached a terminal state. Multi-agent
  /// benches use this instead of polling one id at a time. It returns the
  /// moment the last agent terminates: a migrating hop's coordinator
  /// commit callback — and with it that hop's `step_commit` event — can
  /// still be in flight then. Readers that need exact event totals drain
  /// the simulator first (sim.run()).
  bool run_until_all_finished(std::span<const AgentId> ids);
  /// Decode a captured agent (e.g. AgentOutcome::final_agent).
  [[nodiscard]] std::unique_ptr<Agent> decode(
      std::span<const std::uint8_t> bytes);

  // --- services shared by node runtimes ---------------------------------------
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Network& net() { return net_; }
  /// The platform-owned event sink: spans, protocol events and the
  /// flight recorder (DESIGN.md §12).
  [[nodiscard]] SpanSink& spans() { return spans_; }
  [[nodiscard]] const SpanSink& spans() const { return spans_; }
  /// Fleet-wide metrics: every node's registry snapshot merged (scalars
  /// summed, histograms merged bucket-wise), the platform registry
  /// (platform.rollback_transfers / mixed_ships / lock_conflict_aborts)
  /// and the protocol-event totals as event.<kind>.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;
  [[nodiscard]] PlatformConfig& config() { return config_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] std::uint64_t next_record_id() { return next_record_++; }
  void record_outcome(AgentId id, AgentOutcome outcome);

  /// Total count of agent migrations that were part of rollback processing
  /// (compensation transfers), reported by experiment E2.
  [[nodiscard]] RelaxedCounter& rollback_transfers() {
    return rollback_transfers_;
  }
  /// Mixed-compensation shipments performed instead of agent transfers by
  /// the adaptive strategy (Sec. 4.4.1 "further optimizations"), reported
  /// by experiment A2.
  [[nodiscard]] RelaxedCounter& mixed_ships() { return mixed_ships_; }
  /// Step transactions aborted by a resource lock conflict — the cost of
  /// node multiprogramming (node_concurrency > 1), reported by A4.
  [[nodiscard]] RelaxedCounter& lock_conflict_aborts() {
    return lock_conflict_aborts_;
  }

  // --- savepoint / itinerary integration (Sec. 4.4.2) -------------------------
  /// Append a savepoint entry (plus stack entry) to the agent's log,
  /// honouring the configured logging mode and the lightweight-savepoint
  /// rule. `where` is the node the savepoint event is recorded on.
  void append_savepoint(NodeId where, Agent& agent, SavepointId id,
                        rollback::SavepointOrigin origin, std::uint32_t depth,
                        Position resume);
  /// Process the itinerary movement `from` -> `to` at a step boundary:
  /// GC savepoints of completed sub-itineraries, discard the log at
  /// top-level completions, write ad-hoc and entered-sub savepoints.
  void advance_itinerary(NodeId where, Agent& agent, const Position& from,
                         const std::optional<Position>& to,
                         const std::vector<SavepointId>& adhoc);

 private:
  sim::Simulator& sim_;
  net::Network& net_;
  SpanSink spans_;
  PlatformConfig config_;
  Rng rng_;
  AgentTypeRegistry agent_types_;
  rollback::CompensationRegistry comp_registry_;
  std::map<NodeId, std::unique_ptr<NodeRuntime>> nodes_;
  std::unordered_map<AgentId, AgentOutcome> outcomes_;
  std::unordered_map<AgentId, std::vector<AgentId>> children_;
  std::unordered_set<AgentId> cancel_requested_;
  std::uint64_t next_agent_ = 1;
  std::uint64_t next_record_ = 1;
  RelaxedCounter rollback_transfers_;
  RelaxedCounter mixed_ships_;
  RelaxedCounter lock_conflict_aborts_;
  /// Platform-level counters, registered under their platform.* names.
  MetricsRegistry metrics_;
};

}  // namespace mar::agent
