// Per-node runtime: queue processing, step execution, rollback algorithms.
//
// Each node owns its stable storage (with the agent input queue), a
// transactional queue manager and resource manager, a transaction manager
// and a scheduler (scheduler.h), which hands queued records to up to
// PlatformConfig::node_concurrency execution slots. Each slot processes
// its record:
//
//   execute records   -> the exactly-once step protocol: run the step in a
//                        step transaction, append BOS/OE/EOS (+SP) entries
//                        to the rollback log, stage the agent into the
//                        next node's queue, commit (2PC when remote);
//   compensate records-> one compensation transaction per hop of the
//                        rollback algorithm (Fig. 4b basic / Fig. 5b
//                        optimized), until the target savepoint is
//                        reached and the strongly reversible objects are
//                        restored.
//
// node_runtime.cc holds slot dispatch, the step protocol and the transfer /
// commit plumbing; rollback_driver.cc holds the rollback driver: one start,
// one advance toward the savepoint, one compensation executor. A record
// leaves its slot through one commit exit or one abort exit.
//
// Concurrent slots are isolated by their transactions: resource locks are
// strict and exclusive, so two slots touching the same resource surface a
// lock conflict that aborts the loser into backoff/retry. Any abort — lock
// conflict, crash, vote-no, timeout — leaves the record in the queue; the
// runtime retries after a backoff, possibly routing to an alternative
// node, which is exactly the restartability the paper's correctness
// argument relies on. A crash bumps the node's epoch and empties the
// scheduler's slots; recovery re-offers all queued records.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

#include "agent/agent.h"
#include "agent/platform.h"
#include "agent/scheduler.h"
#include "agent/step_context.h"
#include "resource/resource_manager.h"
#include "serial/decoder.h"
#include "ship/shipment_manager.h"
#include "storage/stable_storage.h"
#include "tx/queue_manager.h"
#include "tx/tx_manager.h"
#include "util/counters.h"

namespace mar::agent {

class NodeRuntime {
 public:
  /// Registers the message handlers of `id`, which must be a network node.
  NodeRuntime(Platform& platform, NodeId id);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] storage::StableStorage& storage() { return storage_; }
  [[nodiscard]] resource::ResourceManager& resources() { return rm_; }
  [[nodiscard]] tx::TxManager& txm() { return txm_; }
  [[nodiscard]] const tx::TxManager& txm() const { return txm_; }
  [[nodiscard]] ship::ShipmentManager& shipments() { return ship_; }

  /// Crash/recovery notification from the network.
  void on_node_state(bool up);
  /// Non-transactional initial placement of a freshly launched agent.
  void enqueue_initial(storage::QueueRecord record);
  /// Fill free execution slots with eligible queue records.
  void pump();
  /// Stable-record key of an agent's durable image on this node
  /// (incremental commits; exposed for tests and tooling).
  [[nodiscard]] static std::string agent_image_key(AgentId id) {
    return "agentimg:" + std::to_string(id.value());
  }

  // --- observability (DESIGN.md §12) -----------------------------------------
  /// This node's metrics registry: every StorageStats / ShipStats /
  /// TxStats counter registered under a dotted name, the platform-level
  /// gauges, and the node's latency histograms.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }
  /// Slots and per-record volatile state (tests read it).
  [[nodiscard]] const Scheduler& scheduler() const { return sched_; }

 private:
  // --- queue processing ------------------------------------------------------
  void process_record(std::uint64_t record_id);
  /// The one commit exit: close the hop span, free the slot, pump.
  void commit_exit(const storage::QueueRecord& rec);
  /// The one abort exit: retry after the scheduler's backoff. False when
  /// a bounded attempt gave up: the slot is still the caller's.
  bool abort_exit(const storage::QueueRecord& rec,
                  Scheduler::Attempt attempt);
  void execute_step(const storage::QueueRecord& rec);
  /// Route a freshly spawned child to its first step's node (multi-agent
  /// executions: the spawn itself committed with the parent's step; this
  /// record performs the initial transfer with the usual retry machinery).
  void execute_launch(const storage::QueueRecord& rec);

  // --- step machinery -----------------------------------------------------------
  /// After the step body ran: append log entries, write savepoints,
  /// advance the itinerary, route the agent, commit.
  void complete_step(TxId tx, const storage::QueueRecord& rec,
                     std::shared_ptr<Agent> agent, StepContext& ctx);
  /// The step entry at the agent's position, read through the const view:
  /// the mutable itinerary accessor would unshare the itinerary.
  [[nodiscard]] static const StepEntry& current_step(const Agent& agent) {
    return agent.itinerary().step_at(agent.position());
  }

  // --- rollback driver (rollback_driver.cc, DESIGN.md §2) --------------------
  using Completion = storage::QueueRecord::Completion;
  /// A cancellation was requested for this agent: a complete rollback (to
  /// the oldest savepoint in its log) that terminates it, or — when the
  /// log no longer reaches back to launch — the record runs on.
  void execute_cancel(const storage::QueueRecord& rec);
  /// The one rollback start (Fig. 4a/5a): a new transaction consumes
  /// `rec`, whose committed (pre-step) state is `agent`, and advances
  /// towards `target`. `completion` chooses what happens at the
  /// savepoint: resume, abandon the sub-itinerary (Sec. 5), terminate as
  /// cancelled (Sec. 6), or enter the next alternative (ref [14]).
  void begin_rollback(const storage::QueueRecord& rec,
                      std::shared_ptr<Agent> agent, SavepointId target,
                      Completion completion);
  /// The one advance toward the savepoint, inside `tx`, which consumes
  /// `rec`: drop dead trailing savepoints; at the target, complete the
  /// rollback (restore when `rec` is a compensate record); otherwise hand
  /// the agent on as the next compensate record.
  void advance_rollback(TxId tx, const storage::QueueRecord& rec,
                        std::shared_ptr<Agent> agent, SavepointId target,
                        Completion completion);
  /// The one compensation executor (Fig. 4b/5b): pop the last step's
  /// operation entries, split them into a shipped list (rce.exec /
  /// mce.exec) and a local list, run both, join, then advance.
  void execute_compensation(const storage::QueueRecord& rec);
  /// Serve a shipped compensation request (rce.exec, mce.exec) inside the
  /// caller's compensation transaction.
  void serve_compensation(const net::Message& m);
  /// Serve a ctr.invoke (resource access by RPC) in the caller's tx.
  void serve_invoke(const net::Message& m);
  /// Complete the waiting call a reply (rce.ack, mce.ack, ctr.result) ends.
  void complete_call(const net::Message& m);
  /// Where an abandoned step rolls back to.
  struct RollbackPlan {
    SavepointId target;
    Completion completion;
  };
  /// The plan of a step that failed permanently or requested a rollback,
  /// resolved and checked against the (pre-step) agent state.
  [[nodiscard]] Result<RollbackPlan> rollback_plan(
      const Agent& agent, const StepContext& ctx) const;
  /// The target must be in the log and not poisoned by a
  /// non-compensatable step (Sec. 3.2).
  [[nodiscard]] Status check_rollback_target(const Agent& agent,
                                             SavepointId target) const;
  /// Where a permanent step failure lands (innermost first): the next
  /// option of an enclosing alternatives entry (ref [14]), or the entry
  /// savepoint of an enclosing non-vital sub-itinerary (Sec. 5) — or
  /// nowhere (the agent fails).
  [[nodiscard]] std::optional<RollbackPlan> failure_plan_for(
      const Agent& agent) const;
  /// Topmost savepoint-stack entry for nesting depth `depth`.
  [[nodiscard]] static SavepointId savepoint_at_depth(const Agent& agent,
                                                      std::uint32_t depth);
  /// After restoring at an abandoned sub-itinerary's savepoint: advance
  /// past the sub (GC its savepoint, handle top-level discard, establish
  /// savepoints of newly entered subs). Returns false when no step follows
  /// (the agent is done).
  bool apply_skip(Agent& agent, SavepointId target);
  /// After restoring at a failed alternatives option's savepoint: enter
  /// the next option (ref [14] flexible itineraries).
  void apply_next_alternative(Agent& agent, SavepointId target);
  void restore_at_savepoint(Agent& agent, SavepointId target);
  /// Execute one compensating operation locally within `tx` for `agent`
  /// (AgentId() for a shipped request, which names only its tx). `weak`
  /// is the weakly-reversible slot map the operation may touch (the
  /// agent's own map, or a shipped snapshot; null for pure resource
  /// entries).
  Status run_comp_op(TxId tx, AgentId agent, const rollback::OperationEntry& op,
                     serial::Value* weak);
  /// Destination of the next compensation transaction (Fig. 4a vs 5a).
  /// `agent_bytes` is the serialized agent size the adaptive strategy
  /// weighs against shipping the step's compensation objects.
  [[nodiscard]] std::vector<NodeId> next_compensation_nodes(
      const rollback::RollbackLog& log, const Agent& agent,
      std::size_t agent_bytes) const;
  /// Adaptive strategy decision (Sec. 4.4.1): is shipping the last step's
  /// operation entries + weak-state snapshot to `dest` cheaper than
  /// transferring the whole agent there?
  [[nodiscard]] bool ship_mixed_is_cheaper(const rollback::RollbackLog& log,
                                           const Agent& agent, NodeId dest,
                                           std::size_t agent_bytes) const;

  // --- transfer / commit plumbing -----------------------------------------------
  /// Stage `record` into `dest`'s queue inside `tx`, then commit; `done`
  /// gets the commit outcome. Remote staging waits for an ack with an
  /// optional timeout (config.stage_timeout_us). `agent` is the state
  /// `record.payload` encodes; a remote staging keeps it (the shipment
  /// layer diffs against it), so the caller must not mutate it afterwards.
  void stage_and_commit(TxId tx, NodeId dest, storage::QueueRecord record,
                        std::shared_ptr<const Agent> agent,
                        std::function<void(bool)> done);
  /// The one exit of a transaction that consumes `rec` and hands the
  /// agent on as `next` (launch, cancel, rollback start, compensation,
  /// resume): stage it at `dests[attempt % n]` and commit. A commit ends
  /// the hop; an abort counts an attempt and retries. Compensation
  /// records report comp_commit / comp_abort; a compensate record that
  /// leaves the node counts as a rollback transfer.
  void hand_off(TxId tx, const storage::QueueRecord& rec,
                storage::QueueRecord next, std::span<const NodeId> dests,
                std::shared_ptr<const Agent> agent, MigrateCause cause);
  /// Terminate the agent as failed in a cleanup transaction that consumes
  /// `rec`. The caller has aborted the transaction it was working in.
  void fail_agent(const storage::QueueRecord& rec, Status status);
  /// The one terminal commit: drop the agent's stable image, deliver its
  /// result to its mailbox (multi-agent executions) and commit `tx`, then
  /// record the outcome `state` with `status`. A failed delivery or
  /// commit retries without counting an attempt.
  void terminate(TxId tx, const storage::QueueRecord& rec, const Agent& agent,
                 AgentOutcome::State state, Status status);
  /// Deliver an agent's result record to its result mailbox within `tx`
  /// (locally or by transactional RPC), then run `done(ok)`.
  void deliver_result(TxId tx, const Agent& agent, bool ok,
                      const Status& error, std::function<void(bool)> done);

  // --- remote calls inside a transaction (RCE, MCE, RPC) ---------------------
  /// A remote call's continuation: `reply` reads the reply payload past
  /// its tx field, or is null when no reply came in time.
  using Reply = std::function<void(serial::Decoder* reply)>;
  /// Enlist `dest` in `tx`, send it `request` as `type`, and wait for its
  /// reply (net::reply_of(type)). Without one within
  /// config.stage_timeout_us plus `transfer_slack` times the request's
  /// transfer time (0 disables the timeout), `on_reply` runs with null.
  void call_remote(TxId tx, NodeId dest, net::MsgType type,
                   serial::Bytes request, sim::TimeUs transfer_slack,
                   Reply on_reply);
  /// Serve `request` inside its caller's transaction `tx`: after
  /// `service`, send `serve()`'s bytes back to the caller as the
  /// request's reply tag.
  template <class F>
  void serve_remote(const net::Message& request, TxId tx,
                    sim::TimeUs service, F serve);

  // --- incremental durability (delta savepoint commits) -----------------------
  /// The committed (pre-step) agent state of a record: its payload, or —
  /// for incremental records with an empty payload — the stable record
  /// area's base image plus appended deltas.
  [[nodiscard]] std::shared_ptr<Agent> load_committed_agent(
      const storage::QueueRecord& rec) const;
  /// Like load_committed_agent, but takes the record's resident agent
  /// when the scheduler holds one (skips the decode).
  [[nodiscard]] std::shared_ptr<Agent> load_agent_for_step(
      const storage::QueueRecord& rec);
  /// The serialized size of the record's agent (adaptive-strategy pricing):
  /// the payload size, or the record area's segment total for incremental
  /// records.
  [[nodiscard]] std::size_t committed_agent_bytes(
      const storage::QueueRecord& rec) const;
  /// Whether the agent's delta chain under `key` should be folded back
  /// into one full image: at the compaction_interval_steps cap.
  [[nodiscard]] bool should_compact(const std::string& key) const;
  /// Stage the agent's post-step durable image for a local handoff:
  /// an O(delta) append when the step was append-only and the chain is
  /// short, a full-image reset otherwise. Returns the (payload-less)
  /// successor record. `prev` is the record being consumed.
  [[nodiscard]] storage::QueueRecord stage_incremental_image(
      TxId tx, const Agent& agent, const storage::QueueRecord& prev);

  // --- observability plumbing (DESIGN.md §12) --------------------------------
  /// Open (or resume) the hop span for a claimed record: first claim
  /// opens the root span in `rec` and emits the queue-wait child, a
  /// re-claim after an abort resumes the span the scheduler stashed and
  /// emits the lock-wait child. No-op when span tracing is off.
  void span_hop_begin(storage::QueueRecord& rec);
  /// Close the record's hop span (the record was consumed: its
  /// transaction committed or the agent terminated) and feed the hop /
  /// queue-wait latency histograms.
  void span_hop_end(const storage::QueueRecord& rec);
  /// Emit the hop's commit-flush child span (begin_us .. now) and feed
  /// the commit-flush latency histogram. No-op when tracing is off.
  void span_commit_flush(const storage::QueueRecord& rec,
                         std::uint64_t begin_us);
  /// Record a phase child of the record's hop span (begin_us .. now).
  /// No-op when tracing is off.
  void span_phase(const storage::QueueRecord& rec, SpanKind kind,
                  std::uint64_t begin_us);
  /// Stamp the successor record with the current hop's causal context.
  void propagate_trace(const storage::QueueRecord& from,
                       storage::QueueRecord& to) const;
  /// Append this node's retained span ring to config.flight_dump_path
  /// (no-op when the path is empty). `reason` names the trigger:
  /// "crash", "corruption", "lock_audit".
  void flight_dump(std::string_view reason);

  // --- small helpers ---------------------------------------------------------
  /// The small-enum field of a protocol event (Span::code).
  template <typename E>
  [[nodiscard]] static std::uint8_t as_code(E e) {
    return static_cast<std::uint8_t>(e);
  }
  /// Record a protocol event on this node (DESIGN.md §12).
  void record_event(EventKind kind, AgentId agent, std::uint64_t value = 0,
                    std::uint64_t value2 = 0, std::uint8_t code = 0);
  [[nodiscard]] std::unique_ptr<Agent> decode(const serial::Bytes& bytes)
      const;
  [[nodiscard]] storage::QueueRecord make_record(
      const Agent& agent, storage::RecordKind kind,
      SavepointId rollback_target);
  /// Schedule `fn` after `delay`; a crash or recovery (the epoch bump)
  /// turns it into a no-op. `fn` is captured as is, not boxed.
  template <class F>
  void after(sim::TimeUs delay, F fn);

  Platform& p_;
  NodeId id_;
  storage::StableStorage storage_;
  tx::QueueManager qm_;
  resource::ResourceManager rm_;
  tx::TxManager txm_;
  /// Owns all inter-node agent transfer: per-destination convoys, the
  /// base+delta channel caches, need_full fallback (src/ship/).
  ship::ShipmentManager ship_;
  Scheduler sched_;

  bool up_ = true;
  std::uint64_t epoch_ = 0;
  /// Metrics registry (counters registered in the ctor) and the node's
  /// latency histograms, owned by the registry; raw pointers cached so
  /// the hot path skips the name lookup.
  MetricsRegistry metrics_;
  Histogram* hist_hop_us_ = nullptr;
  Histogram* hist_step_us_ = nullptr;
  Histogram* hist_queue_wait_us_ = nullptr;
  Histogram* hist_commit_flush_us_ = nullptr;
  /// Steps that ran from a resident agent instead of a decode: one an
  /// incremental commit kept for its local successor, or a delta
  /// migration's reconstructed agent (ShipmentManager handoff).
  RelaxedCounter resident_hits_;
  /// A remote call waiting for its reply (see call_remote). A reply of
  /// another tag is dropped; the reply and a crash cancel the timeout.
  struct Waiter {
    net::MsgType reply;
    Reply on_reply;
    sim::EventId timeout;
  };
  std::unordered_map<TxId, Waiter> waiters_;
};

template <class F>
void NodeRuntime::after(sim::TimeUs delay, F fn) {
  const auto epoch = epoch_;
  // mar-lint: epoch-owned (a crash or recovery bumps epoch_)
  p_.sim().schedule_after(delay, [this, epoch, fn = std::move(fn)]() mutable {
    if (epoch == epoch_) fn();
  });
}

template <class F>
void NodeRuntime::serve_remote(const net::Message& request, TxId tx,
                               sim::TimeUs service, F serve) {
  txm_.note_remote_staged(tx);
  after(service, [this, caller = request.from,
                  reply = net::reply_of(request.type).value(),
                  serve = std::move(serve)]() mutable {
    p_.net().send(net::Message{id_, caller, reply, serve()});
  });
}

}  // namespace mar::agent
