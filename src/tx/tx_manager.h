// Distributed transactions: coordinator and participant endpoints.
//
// Step transactions and compensation transactions in the paper are
// (potentially distributed) ACID transactions: a step's resource updates,
// the removal of the agent from the local input queue and its insertion
// into the next node's input queue commit atomically (Sec. 2). This module
// provides that with two-phase commit, presumed abort:
//
//   * local-only transactions take a one-phase fast path: the
//     coordinator's own participants vote by holding their staging and
//     persist nothing before the decision (a coordinator crash before it
//     aborts anyway), so the commit apply is their only durable write;
//   * with remote participants, the coordinator collects their votes,
//     then persists a decision record with its local apply and drives
//     COMMIT until every remote acknowledges — re-driving from the record
//     after a coordinator crash;
//   * remote participants persist prepared state before voting YES;
//     in-doubt ones periodically send an INQUIRY to the coordinator, which
//     answers from its decision records (no record ⇒ presumed abort).
//
// All message exchange uses the reliable network layer, so transient node
// and link failures only delay the outcome — the property the paper's
// rollback liveness argument builds on.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "storage/stable_storage.h"
#include "sim/simulator.h"
#include "tx/participant.h"
#include "util/counters.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/span.h"

namespace mar::tx {

/// Commit-pipeline observability (RelaxedCounter: safe to sample from a
/// monitor thread mid-run).
struct TxStats {
  /// Gauge: transactions this node coordinates that have begun but not
  /// reached `done` (callback fired AND protocol forgotten): the number
  /// of overlapping commits in the pipeline.
  RelaxedCounter inflight_tx;
  /// Stable-storage syncs paid for coordinator decision durability: one
  /// per decision-queue flush, which covers every decision of its batch.
  RelaxedCounter coordinator_syncs;
  /// High-water mark of inflight_tx.
  RelaxedCounter pipeline_depth_max;
};

/// Builds the TxId for the `n`-th transaction coordinated by `node`.
[[nodiscard]] constexpr TxId make_tx_id(NodeId node, std::uint64_t counter) {
  return TxId((static_cast<std::uint64_t>(node.value()) << 40) | counter);
}
/// Extracts the coordinating node from a TxId.
[[nodiscard]] constexpr NodeId coordinator_of(TxId tx) {
  return NodeId(static_cast<std::uint32_t>(tx.value() >> 40));
}

/// Simulated time between a fuzzy checkpoint's begin and its completion:
/// the window during which commits keep flowing.
inline constexpr sim::TimeUs kCheckpointWriteUs = 500;

class TxManager {
 public:
  using CommitCallback = std::function<void(bool committed)>;

  /// Registers the tx.* handlers of `self`, which must be a node of `net`.
  /// `events`, when set, receives the EventKind::tx_pipeline transitions
  /// (TxStage), so a transaction's pipeline latency can be read from a
  /// dump; tests that build a TxManager directly pass none.
  TxManager(NodeId self, sim::Simulator& sim, net::Network& net,
            storage::StableStorage& stable, SpanSink* events = nullptr);

  /// Register a participant living on this node (queue manager, resource
  /// manager). Remote PREPARE/COMMIT/ABORT is fanned out to all registered
  /// participants that hold state for the transaction.
  void register_participant(Participant& p);

  // --- coordinator side ----------------------------------------------------
  [[nodiscard]] TxId begin();
  /// Record that `node` holds staged state for `tx` (it must be told the
  /// outcome). Safe to call repeatedly.
  void enlist_remote(TxId tx, NodeId node);
  /// Drive the commit protocol; invokes `cb` exactly once unless this node
  /// crashes first (after a crash, recovery finishes the protocol without
  /// the callback — callers recover through their own durable state).
  void commit_async(TxId tx, CommitCallback cb);
  /// Abort a transaction this node coordinates.
  void abort_tx(TxId tx);
  /// Abort `tx` only if it is still collecting votes. Used by transfer
  /// timeouts, where the commit machinery runs concurrently with the
  /// shipment: once a decision exists (or the transaction is gone) the
  /// timeout is stale and must not fire the callback a second time.
  void abort_if_preparing(TxId tx);
  /// Mark `node` as receiving its PREPARE piggybacked on the shipment
  /// frame itself (ship.convoy): commit_async sends it no tx.prepare, and
  /// the PREPARE re-drive leaves it alone until note_staged. Until then a
  /// convoy that never lands is the ship stage timeout's to abort; an
  /// explicit PREPARE could overtake a convoy still on the wire and draw
  /// a NO from a participant that has nothing staged yet.
  void note_piggybacked(TxId tx, NodeId node);
  /// The convoy ack reports `tx`'s staging at `node`: from now on a lost
  /// vote is the PREPARE re-drive's to recover (a participant that lost
  /// the staging to a crash answers NO, presumed abort). No-op once the
  /// transaction is gone.
  void note_staged(TxId tx, NodeId node);

  // --- participant side -----------------------------------------------------
  /// Note that a remote coordinator staged state at this node (e.g. an
  /// agent enqueue or shipped compensating operations). Starts the in-doubt
  /// inquiry timer so an orphaned transaction is eventually presumed
  /// aborted and its staged state (and locks) released.
  void note_remote_staged(TxId tx);
  /// A PREPARE carried inside a ship.convoy frame (one round trip: every
  /// convoy entry IS the prepare). Routes into the same vote machinery as
  /// a tx.prepare message; convoys deliver whole batches of these at
  /// once, so the participant window flushes them under one shared barrier.
  void on_piggybacked_prepare(TxId tx, NodeId coordinator) {
    handle_prepare(tx, coordinator);
  }

  // --- wiring ---------------------------------------------------------------
  /// Crash/recovery hooks, called by the platform's node runtime.
  void on_crash();
  void on_recover();

  /// True while this node coordinates unfinished transactions or holds
  /// prepared participant state (used by tests to detect quiescence).
  [[nodiscard]] bool idle() const;

  /// Stable-storage syncs paid as a 2PC PARTICIPANT (prepare barriers
  /// before YES votes, commit applies before acks) — the share of this
  /// node's sync_batches that convoy batching + participant-side group
  /// commit amortize. A7 reports this per agent-hop.
  [[nodiscard]] std::uint64_t participant_syncs() const {
    return participant_syncs_;
  }

  /// Commit-pipeline counters (monitor-thread-safe).
  [[nodiscard]] const TxStats& stats() const { return stats_; }

  [[nodiscard]] NodeId self() const { return self_; }

  /// Called after each tx.* message this node handles, and after a batched
  /// participant flush applied remote commits (the flush timer runs
  /// outside any message): queue records may have landed, so the owning
  /// runtime re-pumps its scheduler here.
  void set_apply_listener(std::function<void()> fn) {
    apply_listener_ = std::move(fn);
  }

  /// Group commit (the MariaDB/TokuDB-style log batching, applied to the
  /// one-phase local fast path): decided local-only commits enter a queue
  /// that is flushed — participants applied, ONE metered sync, callbacks —
  /// when `window` commits are pending or `flush_us` after the first one.
  ///
  /// The same window coalesces the rest of 2PC. Coordinator decisions
  /// queue for one batched sync; participant PREPAREs and COMMIT applies
  /// queue and flush with a shared sync — votes and commit-acks leave
  /// only after the batched barrier, so convoyed agent transfers towards
  /// one node pay ~2 syncs per batch instead of 2 per transfer. A crash
  /// before the flush loses the queued (volatile, unvoted) prepares, so
  /// their coordinators read the silence as presumed abort — the same
  /// crash atomicity the local commit queue has. Window 1 is the
  /// degenerate batch: every queue flushes each entry at once.
  void set_group_commit(std::uint32_t window, sim::TimeUs flush_us) {
    group_window_ = window;
    group_flush_us_ = flush_us;
  }

  /// Fuzzy record-log checkpoints: whenever a group-commit flush observes
  /// >= `interval_bytes` of new record-log writes since the last
  /// checkpoint, begin one — snapshot at the current LSN without stalling
  /// the pipeline — and complete it kCheckpointWriteUs later on a timer the
  /// crash cancels, so a crash inside the window simply abandons the
  /// attempt (the previous generation stays valid). 0 disables.
  void set_checkpoint(std::size_t interval_bytes) {
    checkpoint_interval_bytes_ = interval_bytes;
  }

 private:
  /// Coordinator-side per-transaction state machine. In `deciding` all
  /// votes are in and the decision record sits in decision_queue_
  /// awaiting the batched durability flush (ONE sync for the whole
  /// batch), after which the transaction drains acks in `committing`. The callback fires at ack drain, preserving the
  /// caller-visible invariant that a finished transaction's effects are
  /// applied at every participant.
  ///
  ///   preparing --all votes--> deciding --flush--> committing --acks--> done
  ///       |                        \ (crash: nothing persisted ->
  ///       +--NO vote/abort--> done    presumed abort)
  enum class Phase { preparing, deciding, committing };
  struct Coord {
    std::set<NodeId> remotes;
    std::set<NodeId> votes_pending;
    std::set<NodeId> acks_pending;
    /// Remotes whose PREPARE rides a convoy frame not yet acked as
    /// staged: no tx.prepare is sent to them, not even by the re-drive.
    std::set<NodeId> piggybacked;
    Phase phase = Phase::preparing;
    /// Whether this entry came through begin() and is counted in the
    /// inflight gauge (recovery-rebuilt entries are not).
    bool counted = false;
    std::uint32_t voters = 0;  ///< local votes, see prepare_locals
    CommitCallback callback;
    /// PREPARE re-drive while preparing, COMMIT re-drive while committing;
    /// cancelled when the phase ends.
    sim::EventId redrive;
  };
  /// A participant awaiting its outcome. Its one inquiry chain re-sends
  /// an INQUIRY every kInquiryIntervalUs from the moment the entry is made
  /// (staging, YES vote or recovery, whichever comes first) and dies when
  /// the outcome arrives.
  struct InDoubt {
    NodeId coordinator;
    sim::EventId inquiry;
  };
  /// A participant PREPARE or COMMIT apply awaiting the batched flush.
  struct PendingPart {
    TxId tx;
    NodeId coordinator;
  };

  // Coordinator internals.
  void decide_commit(TxId tx, Coord& c);
  void decide_abort(TxId tx, Coord& c);
  void finish(TxId tx, Coord& c, bool committed);
  /// Apply every queued local commit, pay one sync, run the callbacks.
  void flush_commit_group();
  void schedule_group_flush();
  /// Persist every queued commit decision, pay ONE metered sync, send the
  /// COMMITs (callbacks fire later, at ack drain).
  void flush_decision_group();
  /// Arm the decision flush: `hot` schedules an immediate (same-instant)
  /// flush once the window filled — it still runs after every event
  /// already queued for this timestamp, so a burst of votes larger than
  /// the window shares one barrier; otherwise dwell group_flush_us_.
  void schedule_decision_flush(bool hot);
  void arm_prepare_redrive(TxId tx, Coord& c);
  void arm_commit_redrive(TxId tx, Coord& c);
  /// Inflight gauge maintenance (mirrors into stats_, tracks high water).
  void inflight_add();
  void inflight_remove();
  /// Mask over participants_ of those holding `tx`'s staging: their votes.
  [[nodiscard]] std::uint32_t prepare_locals(TxId tx) const;
  void commit_decided(TxId tx, std::uint32_t voters);
  void commit_locals(TxId tx);
  void abort_locals(TxId tx);
  void persist_decision(TxId tx, const std::set<NodeId>& remotes);
  void send(NodeId to, net::MsgType type, TxId tx, bool flag = false);

  // Participant internals.
  void handle_prepare(TxId tx, NodeId coordinator);
  void handle_commit(TxId tx, NodeId coordinator);
  /// Queue `tx` in `queue` (once) and flush the participant batch when
  /// the window is full, else arm its dwell flush.
  void queue_participant_work(std::vector<PendingPart>& queue,
                              TxId tx, NodeId coordinator);
  /// Run queued participant prepares and commit applies, pay one shared
  /// sync, then release the votes and acks.
  void flush_participant_group();
  void schedule_participant_flush();
  void handle_abort(TxId tx);
  void handle_inquiry(TxId tx, NodeId from);
  void handle_decision(TxId tx, bool committed);
  void persist_prepared_marker(TxId tx);
  void clear_prepared_marker(TxId tx);
  /// Mark `tx` in doubt here and start its inquiry chain, unless it
  /// already is.
  void enter_in_doubt(TxId tx, NodeId coordinator);
  void arm_inquiry(TxId tx);
  /// The outcome of `tx` is known here: stop asking for it.
  void end_in_doubt(TxId tx);
  void trace_pipeline(TxStage stage, TxId tx);
  /// Checkpoint trigger, evaluated at every batched flush point (the
  /// moments this node already pays a durability barrier).
  void maybe_begin_checkpoint();

  [[nodiscard]] std::string decision_key(TxId tx) const;
  [[nodiscard]] std::string prepared_key(TxId tx) const;

  NodeId self_;
  sim::Simulator& sim_;
  net::Network& net_;
  storage::StableStorage& stable_;
  std::vector<Participant*> participants_;
  std::map<TxId, Coord> coords_;
  /// Transactions this node has prepared as a participant and whose
  /// outcome is still unknown.
  std::map<TxId, InDoubt> in_doubt_;
  std::uint64_t next_tx_ = 1;
  static constexpr sim::TimeUs kInquiryIntervalUs = 200'000;  // 200 ms

  /// Decided-but-unsynced local commits (tx, voters, callback) awaiting
  /// the group flush. Their participants still hold locks and volatile
  /// staging, nothing durable; a crash before the flush loses both
  /// (nothing was applied), which is the crash atomicity of a batched sync.
  std::vector<std::tuple<TxId, std::uint32_t, CommitCallback>> commit_queue_;
  /// Dwell timer of commit_queue_; every flush cancels it, so a batch
  /// never inherits the previous batch's deadline.
  sim::EventId group_flush_;
  std::uint32_t group_window_ = 1;
  sim::TimeUs group_flush_us_ = 100;

  /// Fuzzy-checkpoint cadence (0 = off).
  std::size_t checkpoint_interval_bytes_ = 0;
  /// appended_bytes() watermark at the last checkpoint begin.
  std::uint64_t checkpoint_mark_ = 0;
  /// Completes the checkpoint in progress; a crash cancels it.
  sim::EventId checkpoint_done_;

  /// Coordinator decision queue: fully-voted distributed commits
  /// whose decision records await the batched durability flush. Volatile —
  /// a crash before the flush persisted nothing, so the prepared
  /// participants resolve to presumed abort through their inquiries,
  /// exactly as if the coordinator had never decided.
  std::vector<TxId> decision_queue_;
  sim::EventId decision_dwell_;  ///< dwell flush timer
  sim::EventId decision_hot_;    ///< same-instant flush

  /// Coordinated transactions begun but not yet done (plain counter: all
  /// mutation happens on the owning sim thread; stats_ carries the
  /// cross-thread-readable mirror).
  std::uint64_t inflight_ = 0;

  TxStats stats_;
  SpanSink* events_;

  /// Participant-side pending work awaiting the batched flush: PREPAREs
  /// not yet persisted/voted and COMMITs not yet applied/acked. Volatile —
  /// a crash drops queued prepares unvoted (presumed abort) and leaves
  /// queued commits to the coordinator's COMMIT re-drive / the inquiry
  /// protocol.
  std::vector<PendingPart> prepare_queue_;
  std::vector<PendingPart> apply_queue_;
  sim::EventId part_flush_;
  std::function<void()> apply_listener_;
  std::uint64_t participant_syncs_ = 0;
};

}  // namespace mar::tx
