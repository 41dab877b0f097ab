#include "tx/tx_manager.h"

#include <algorithm>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "util/check.h"

namespace mar::tx {

namespace {

serial::Bytes encode_tx(TxId tx, bool flag) {
  serial::Encoder enc(8 + 1);
  enc.write_u64(tx.value());
  enc.write_bool(flag);
  return std::move(enc).take();
}

std::pair<TxId, bool> decode_tx(const net::Message& m) {
  serial::Decoder dec(m.payload);
  TxId tx(dec.read_u64());
  const bool flag = dec.read_bool();
  dec.expect_end();
  return {tx, flag};
}

}  // namespace

TxManager::TxManager(NodeId self, sim::Simulator& sim, net::Network& net,
                     storage::StableStorage& stable, SpanSink* events)
    : self_(self), sim_(sim), net_(net), stable_(stable), events_(events) {}

void TxManager::register_participant(Participant& p) {
  MAR_CHECK(participants_.size() < 32);  // voter sets are 32-bit masks
  participants_.push_back(&p);
}

std::string TxManager::decision_key(TxId tx) const {
  return "txdec:" + std::to_string(tx.value());
}

std::string TxManager::prepared_key(TxId tx) const {
  return "txprep:" + std::to_string(tx.value());
}

// --------------------------------------------------------------------------
// Coordinator side
// --------------------------------------------------------------------------

TxId TxManager::begin() {
  const TxId tx = make_tx_id(self_, next_tx_++);
  Coord& c = coords_[tx];
  c.counted = true;
  inflight_add();
  return tx;
}

void TxManager::inflight_add() {
  ++inflight_;
  stats_.inflight_tx.store(inflight_);
  if (inflight_ > stats_.pipeline_depth_max.load()) {
    stats_.pipeline_depth_max.store(inflight_);
  }
}

void TxManager::inflight_remove() {
  MAR_DCHECK(inflight_ > 0);
  --inflight_;
  stats_.inflight_tx.store(inflight_);
}

void TxManager::trace_pipeline(TxStage stage, TxId tx) {
  if (events_ == nullptr) return;
  events_->event(EventKind::tx_pipeline, self_.value(), 0, sim_.now(),
                 tx.value(), 0, static_cast<std::uint8_t>(stage));
}

void TxManager::enlist_remote(TxId tx, NodeId node) {
  if (node == self_) return;
  auto it = coords_.find(tx);
  MAR_CHECK_MSG(it != coords_.end(), "enlist on unknown tx " << tx);
  it->second.remotes.insert(node);
}

bool TxManager::has_remote(TxId tx, NodeId node) const {
  auto it = coords_.find(tx);
  return it != coords_.end() && it->second.remotes.contains(node);
}

std::uint32_t TxManager::prepare_locals(TxId tx) const {
  // Presumed abort: a coordinator that crashes before deciding aborts the
  // transaction anyway, so its own participants vote by holding their
  // staging and persist nothing. The decision's apply is their first and
  // only durable write.
  std::uint32_t voters = 0;
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    if (participants_[i]->has_tx(tx)) voters |= 1u << i;
  }
  return voters;
}

void TxManager::commit_decided(TxId tx, std::uint32_t voters) {
  // No durable prepare backs these votes: a voter that lost its staging
  // before this apply would report a commit that applied nothing.
  MAR_DCHECK_MSG((prepare_locals(tx) & voters) == voters,
                 "decided tx " << tx << " lost its local staging");
  for (auto* p : participants_) p->commit(tx);
}

void TxManager::commit_locals(TxId tx) {
  for (auto* p : participants_) p->commit(tx);
  clear_prepared_marker(tx);
}

void TxManager::abort_locals(TxId tx) {
  for (auto* p : participants_) p->abort(tx);
  clear_prepared_marker(tx);
}

void TxManager::persist_decision(TxId tx, const std::set<NodeId>& remotes) {
  serial::Encoder enc(serial::varint_size(remotes.size()) +
                      4 * remotes.size());
  enc.write_varint(remotes.size());
  for (const auto n : remotes) enc.write_u32(n.value());
  stable_.put(decision_key(tx), std::move(enc).take());
}

void TxManager::send(NodeId to, const char* type, TxId tx, bool flag) {
  net_.send(net::Message{self_, to, type, encode_tx(tx, flag)});
}

void TxManager::commit_async(TxId tx, CommitCallback cb) {
  auto it = coords_.find(tx);
  MAR_CHECK_MSG(it != coords_.end(), "commit on unknown tx " << tx);
  Coord& c = it->second;
  c.callback = std::move(cb);
  c.voters = prepare_locals(tx);
  if (c.remotes.empty()) {
    // Group commit: the outcome is decided (every local participant
    // voted), but the stable-storage apply, the metered sync and the
    // callback wait for the window flush — several step transactions
    // share one sync batch. At window 1 the flush runs right here.
    commit_queue_.emplace_back(tx, c.voters, std::move(c.callback));
    coords_.erase(tx);
    if (commit_queue_.size() >= group_window_) {
      flush_commit_group();
    } else {
      schedule_group_flush();
    }
    return;
  }
  c.phase = Phase::preparing;
  c.votes_pending = c.remotes;
  for (const auto n : c.remotes) {
    // A piggybacked remote sees its PREPARE inside the convoy frame that
    // carries the staged state — one round trip, no tx.prepare message.
    if (c.piggybacked.contains(n)) continue;
    send(n, msg::prepare, tx);
  }
  // Re-drive PREPARE until all votes arrive: a participant that crashed
  // before staging will answer NO, resolving the transaction either way.
  // A piggybacked remote joins only once its convoy ack reported the
  // staging (note_staged): before that, a slow convoy could still be on
  // the wire, and the ship stage timeout covers one that never lands.
  arm_prepare_redrive(tx, c);
}

void TxManager::arm_prepare_redrive(TxId tx, Coord& c) {
  c.redrive = sim_.schedule_after(inquiry_interval_, [this, tx] {
    Coord& cur = coords_.at(tx);  // leaving `preparing` cancels this timer
    for (const auto n : cur.votes_pending) {
      if (!cur.piggybacked.contains(n)) send(n, msg::prepare, tx);
    }
    arm_prepare_redrive(tx, cur);
  });
}

void TxManager::abort_tx(TxId tx) {
  auto it = coords_.find(tx);
  MAR_CHECK_MSG(it != coords_.end(), "abort on unknown tx " << tx);
  decide_abort(tx, it->second);
}

void TxManager::abort_if_preparing(TxId tx) {
  auto it = coords_.find(tx);
  if (it == coords_.end() || it->second.phase != Phase::preparing) return;
  decide_abort(tx, it->second);
}

void TxManager::note_piggybacked(TxId tx, NodeId node) {
  auto it = coords_.find(tx);
  MAR_CHECK_MSG(it != coords_.end(), "piggyback on unknown tx " << tx);
  it->second.piggybacked.insert(node);
}

void TxManager::note_staged(TxId tx, NodeId node) {
  auto it = coords_.find(tx);
  if (it != coords_.end()) it->second.piggybacked.erase(node);
}

void TxManager::flush_commit_group() {
  // A direct (window-full) flush supersedes the armed flush timer: a
  // later batch must not inherit its stale, now too-early deadline.
  sim_.cancel(group_flush_);
  if (commit_queue_.empty()) return;
  auto batch = std::move(commit_queue_);
  commit_queue_.clear();
  for (const auto& [tx, voters, cb] : batch) commit_decided(tx, voters);
  // One metered sync for the whole batch — the point of group commit.
  // Within the (single-threaded) simulation the applies above are atomic
  // w.r.t. crash events, so batching only moves the durable point, never
  // splits a transaction.
  stable_.sync();
  for (auto& [tx, voters, cb] : batch) {
    inflight_remove();
    if (cb) cb(true);
  }
  maybe_begin_checkpoint();
}

void TxManager::maybe_begin_checkpoint() {
  if (checkpoint_interval_bytes_ == 0) return;
  const auto& log = stable_.segment_log();
  if (log.checkpoint_in_progress()) return;
  if (log.appended_bytes() - checkpoint_mark_ < checkpoint_interval_bytes_) {
    return;
  }
  checkpoint_mark_ = log.appended_bytes();
  if (!stable_.begin_checkpoint()) return;
  trace_pipeline(TxStage::ckpt_begin, TxId(0));
  // The fuzzy window: commits keep flowing while the snapshot "writes".
  // A crash inside the window cancels the completion and so abandons the
  // attempt — the previous checkpoint generation stays the recovery base.
  checkpoint_done_ = sim_.schedule_after(kCheckpointWriteUs, [this] {
    if (stable_.complete_checkpoint()) {
      trace_pipeline(TxStage::ckpt_done, TxId(0));
    }
  });
}

void TxManager::schedule_group_flush() {
  if (sim_.scheduled(group_flush_)) return;
  group_flush_ =
      sim_.schedule_after(group_flush_us_, [this] { flush_commit_group(); });
}

void TxManager::decide_commit(TxId tx, Coord& c) {
  sim_.cancel(c.redrive);  // no more PREPAREs: every vote is in
  // The decision is made but its durability record queues for the batched
  // flush — many decisions, one sync. Until the flush nothing of the
  // transaction is durable here, so a crash resolves to presumed abort
  // exactly like an undecided one.
  c.phase = Phase::deciding;
  decision_queue_.push_back(tx);
  trace_pipeline(TxStage::decided, tx);
  schedule_decision_flush(decision_queue_.size() >= group_window_);
}

void TxManager::arm_commit_redrive(TxId tx, Coord& c) {
  // Re-drive COMMIT until every participant acknowledged; the ack drain
  // (finish) cancels it.
  c.redrive = sim_.schedule_after(inquiry_interval_, [this, tx] {
    Coord& cur = coords_.at(tx);
    for (const auto n : cur.acks_pending) send(n, msg::commit, tx);
    arm_commit_redrive(tx, cur);
  });
}

void TxManager::flush_decision_group() {
  sim_.cancel(decision_dwell_);
  sim_.cancel(decision_hot_);
  if (decision_queue_.empty()) return;
  auto batch = std::move(decision_queue_);
  decision_queue_.clear();
  std::vector<TxId> flushed;
  flushed.reserve(batch.size());
  for (const TxId tx : batch) {
    auto it = coords_.find(tx);
    if (it == coords_.end() || it->second.phase != Phase::deciding) continue;
    Coord& c = it->second;
    persist_decision(tx, c.remotes);
    commit_decided(tx, c.voters);
    c.phase = Phase::committing;
    c.acks_pending = c.remotes;
    flushed.push_back(tx);
  }
  if (flushed.empty()) return;
  // ONE metered sync makes the whole batch of decision records (and their
  // local applies) durable — the coordinator half of group commit. The
  // completion callbacks still fire at ack drain (finish), preserving the
  // invariant callers rely on: a finished transaction's effects are
  // applied at every participant, not merely decided.
  stable_.sync();
  ++stats_.coordinator_syncs;
  for (const TxId tx : flushed) {
    auto it = coords_.find(tx);
    MAR_CHECK(it != coords_.end());
    for (const auto n : it->second.acks_pending) send(n, msg::commit, tx);
    arm_commit_redrive(tx, it->second);
    trace_pipeline(TxStage::flushed, tx);
  }
  maybe_begin_checkpoint();
}

void TxManager::schedule_decision_flush(bool hot) {
  if (hot) {
    if (sim_.scheduled(decision_hot_)) return;
    // after(0) runs behind the message deliveries already queued for this
    // instant, so a burst of votes larger than the window still lands in
    // ONE batch (the window is a floor for the flush, not a batch cap).
    decision_hot_ = sim_.schedule_after(0, [this] { flush_decision_group(); });
    return;
  }
  if (sim_.scheduled(decision_dwell_) || sim_.scheduled(decision_hot_)) {
    return;
  }
  decision_dwell_ =
      sim_.schedule_after(group_flush_us_, [this] { flush_decision_group(); });
}

void TxManager::decide_abort(TxId tx, Coord& c) {
  abort_locals(tx);
  for (const auto n : c.remotes) send(n, msg::abort, tx);
  finish(tx, c, false);
}

void TxManager::finish(TxId tx, Coord& c, bool committed) {
  sim_.cancel(c.redrive);
  auto cb = std::move(c.callback);
  if (c.counted) inflight_remove();
  coords_.erase(tx);
  if (cb) cb(committed);
}

// --------------------------------------------------------------------------
// Participant side
// --------------------------------------------------------------------------

void TxManager::persist_prepared_marker(TxId tx) {
  stable_.put(prepared_key(tx), {});
}

void TxManager::clear_prepared_marker(TxId tx) {
  stable_.erase(prepared_key(tx));
}

void TxManager::note_remote_staged(TxId tx) {
  const NodeId coord = coordinator_of(tx);
  if (coord != self_) enter_in_doubt(tx, coord);
}

void TxManager::handle_prepare(TxId tx, NodeId coordinator) {
  // Participant-side group commit: the prepare work (and its sync) waits
  // for the batch flush; the vote leaves with it. Convoyed agent transfers
  // arrive together, so their prepares share one barrier.
  queue_participant_work(prepare_queue_, tx, coordinator);
}

void TxManager::handle_commit(TxId tx, NodeId coordinator) {
  queue_participant_work(apply_queue_, tx, coordinator);
}

void TxManager::queue_participant_work(std::vector<PendingPart>& queue,
                                       TxId tx, NodeId coordinator) {
  const auto queued = std::any_of(
      queue.begin(), queue.end(),
      [tx](const PendingPart& p) { return p.tx == tx; });
  if (!queued) queue.push_back(PendingPart{tx, coordinator});
  if (prepare_queue_.size() + apply_queue_.size() >= group_window_) {
    flush_participant_group();
  } else {
    schedule_participant_flush();
  }
}

void TxManager::flush_participant_group() {
  sim_.cancel(part_flush_);
  if (prepare_queue_.empty() && apply_queue_.empty()) return;
  auto applies = std::move(apply_queue_);
  apply_queue_.clear();
  auto prepares = std::move(prepare_queue_);
  prepare_queue_.clear();
  bool durable_work = false;
  // Decided commits first: their staged state is already prepared, the
  // apply only needs the shared barrier before the ack leaves.
  for (const auto& a : applies) {
    commit_locals(a.tx);
    end_in_doubt(a.tx);
    durable_work = true;
  }
  struct Vote {
    TxId tx;
    NodeId to;
    bool yes;
  };
  std::vector<Vote> votes;
  votes.reserve(prepares.size());
  for (const auto& pnd : prepares) {
    bool any = false;
    bool ok = true;
    for (auto* p : participants_) {
      if (!p->has_tx(pnd.tx)) continue;
      any = true;
      ok = p->prepare(pnd.tx) && ok;
    }
    // Nothing staged: this node crashed and lost the staged state, an
    // abort arrived while the prepare was queued, or the transaction
    // already finished here. The NO vote resolves it either way; a
    // duplicate PREPARE after commit cannot happen because the
    // coordinator stops re-driving PREPARE once decided.
    if (any && ok) {
      persist_prepared_marker(pnd.tx);
      durable_work = true;
      enter_in_doubt(pnd.tx, pnd.coordinator);
    }
    votes.push_back(Vote{pnd.tx, pnd.coordinator, any && ok});
  }
  // ONE metered barrier for the whole batch; votes and acks may leave
  // only after it — that is the promise a YES vote / commit-ack makes.
  if (durable_work) {
    stable_.sync();
    ++participant_syncs_;
  }
  for (const auto& a : applies) send(a.coordinator, msg::commit_ack, a.tx);
  for (const auto& v : votes) send(v.to, msg::vote, v.tx, v.yes);
  if (!applies.empty() && apply_listener_) apply_listener_();
  maybe_begin_checkpoint();
}

void TxManager::schedule_participant_flush() {
  if (sim_.scheduled(part_flush_)) return;
  part_flush_ = sim_.schedule_after(group_flush_us_,
                                    [this] { flush_participant_group(); });
}

void TxManager::handle_abort(TxId tx) {
  abort_locals(tx);
  end_in_doubt(tx);
}

void TxManager::handle_inquiry(TxId tx, NodeId from) {
  if (stable_.contains(decision_key(tx))) {
    send(from, msg::decision, tx, true);
    return;
  }
  if (coords_.contains(tx)) return;  // still deciding; stay silent
  send(from, msg::decision, tx, false);  // presumed abort
}

void TxManager::handle_decision(TxId tx, bool committed) {
  if (committed) {
    // Same path as a direct COMMIT (including the participant-side group
    // flush): apply, barrier, then acknowledge towards the coordinator.
    handle_commit(tx, coordinator_of(tx));
  } else {
    handle_abort(tx);
  }
}

void TxManager::enter_in_doubt(TxId tx, NodeId coordinator) {
  if (in_doubt_.emplace(tx, InDoubt{coordinator, {}}).second) arm_inquiry(tx);
}

void TxManager::arm_inquiry(TxId tx) {
  in_doubt_.at(tx).inquiry =
      sim_.schedule_after(inquiry_interval_, [this, tx] {
        send(in_doubt_.at(tx).coordinator, msg::inquiry, tx);
        arm_inquiry(tx);
      });
}

void TxManager::end_in_doubt(TxId tx) {
  auto it = in_doubt_.find(tx);
  if (it == in_doubt_.end()) return;
  sim_.cancel(it->second.inquiry);
  in_doubt_.erase(it);
}

// --------------------------------------------------------------------------
// Message dispatch and crash/recovery
// --------------------------------------------------------------------------

void TxManager::on_message(const net::Message& m) {
  const auto [tx, flag] = decode_tx(m);
  const std::string& t = m.type;
  if (t == msg::prepare) {
    handle_prepare(tx, m.from);
  } else if (t == msg::vote) {
    auto it = coords_.find(tx);
    if (it == coords_.end()) {
      // Already decided (or coordinator recovered). A YES voter is left
      // prepared: answer from durable decision state.
      if (flag) handle_inquiry(tx, m.from);
      return;
    }
    Coord& c = it->second;
    if (c.phase != Phase::preparing) return;  // stale duplicate
    if (!flag) {
      decide_abort(tx, c);
      return;
    }
    c.votes_pending.erase(m.from);
    if (c.votes_pending.empty()) decide_commit(tx, c);
  } else if (t == msg::commit) {
    handle_commit(tx, m.from);
  } else if (t == msg::commit_ack) {
    auto it = coords_.find(tx);
    if (it == coords_.end()) return;
    Coord& c = it->second;
    if (c.phase != Phase::committing) return;
    c.acks_pending.erase(m.from);
    if (c.acks_pending.empty()) {
      stable_.erase(decision_key(tx));
      trace_pipeline(TxStage::acked, tx);
      finish(tx, c, true);
    }
  } else if (t == msg::abort) {
    handle_abort(tx);
  } else if (t == msg::inquiry) {
    handle_inquiry(tx, m.from);
  } else if (t == msg::decision) {
    handle_decision(tx, flag);
  } else {
    MAR_CHECK_MSG(false, "unknown tx message type " << t);
  }
}

void TxManager::on_crash() {
  // Every timer of this node dies with the volatile state it served.
  for (const auto& [tx, c] : coords_) sim_.cancel(c.redrive);
  for (const auto& [tx, d] : in_doubt_) sim_.cancel(d.inquiry);
  for (const auto id : {group_flush_, decision_dwell_, decision_hot_,
                        part_flush_, checkpoint_done_}) {
    sim_.cancel(id);
  }
  coords_.clear();
  in_doubt_.clear();
  // Queued-but-unflushed group commits die with the crash: nothing of
  // them reached stable storage, their staging is volatile, and their
  // records stay queued (restartability).
  commit_queue_.clear();
  // Queued decisions were never persisted: their prepared remote
  // participants resolve to presumed abort through the inquiry protocol,
  // the local staging dies with the crash — exactly-once holds because
  // nothing was applied anywhere.
  decision_queue_.clear();
  inflight_ = 0;
  stats_.inflight_tx.store(0);
  // Likewise the participant-side batch: queued prepares never voted (the
  // coordinator presumes abort from the silence), queued commit applies
  // are re-driven by the coordinator / resolved by inquiry.
  prepare_queue_.clear();
  apply_queue_.clear();
  for (auto* p : participants_) p->on_crash();
}

void TxManager::on_recover() {
  // Participant side: every prepared marker is a remote coordinator's
  // transaction (this node's own participants never persist a prepare);
  // ask its coordinator for the outcome.
  stable_.for_each_with_prefix(
      "txprep:", [this](const std::string& key, const serial::Bytes&) {
        const TxId tx(std::stoull(key.substr(7)));
        MAR_DCHECK_MSG(coordinator_of(tx) != self_,
                       "prepared marker of self-coordinated tx " << tx);
        enter_in_doubt(tx, coordinator_of(tx));
      });
  // Coordinator side: re-drive every decided-but-unfinished transaction.
  // commit_locals mutates stable storage, so snapshot the decisions first.
  std::vector<std::pair<TxId, serial::Bytes>> decisions;
  stable_.for_each_with_prefix(
      "txdec:",
      [&decisions](const std::string& key, const serial::Bytes& bytes) {
        decisions.emplace_back(TxId(std::stoull(key.substr(6))), bytes);
      });
  for (const auto& [tx, record] : decisions) {
    serial::Decoder dec(record);
    const auto n = dec.read_varint();
    Coord c;
    for (std::uint64_t i = 0; i < n; ++i) {
      c.remotes.insert(NodeId(dec.read_u32()));
    }
    c.phase = Phase::committing;
    c.acks_pending = c.remotes;
    commit_locals(tx);
    stable_.sync();
    for (const auto node : c.remotes) send(node, msg::commit, tx);
    auto [it, inserted] = coords_.emplace(tx, std::move(c));
    MAR_CHECK(inserted);
    // Re-arm the COMMIT re-drive loop. The rebuilt entry is not counted
    // in the inflight gauge: its caller's callback died with the crash.
    arm_commit_redrive(tx, it->second);
  }
}

bool TxManager::idle() const {
  if (!coords_.empty() || !in_doubt_.empty() || !commit_queue_.empty() ||
      !decision_queue_.empty() || !prepare_queue_.empty() ||
      !apply_queue_.empty()) {
    return false;
  }
  return stable_.keys_with_prefix("txdec:").empty() &&
         stable_.keys_with_prefix("txprep:").empty();
}

}  // namespace mar::tx
