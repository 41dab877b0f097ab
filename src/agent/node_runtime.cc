#include "agent/node_runtime.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <utility>

#include "contract/contract.h"
#include "resource/lock_audit.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "util/check.h"

namespace mar::agent {

using rollback::EntryKind;
using rollback::OpEntryKind;
using rollback::OperationEntry;
using storage::QueueRecord;
using storage::RecordKind;

namespace {
/// The step entry at the agent's position, read through the const view:
/// the mutable itinerary accessor would unshare the itinerary.
const StepEntry& current_step(const Agent& agent) {
  return agent.itinerary().step_at(agent.position());
}

/// The small-enum field of a protocol event (Span::code).
template <typename E>
std::uint8_t as_code(E e) {
  return static_cast<std::uint8_t>(e);
}

/// A shipped compensation request (rce.exec, mce.exec): the tx, the
/// operation entries in execution order, then the weak-state snapshot of
/// a mixed step's request.
serial::Bytes encode_comp_request(TxId tx,
                                  const std::vector<OperationEntry>& ops,
                                  const serial::Value* weak) {
  std::size_t frame = 8 + serial::varint_size(ops.size()) +
                      (weak != nullptr ? weak->encoded_size() : 0);
  for (const auto& op : ops) frame += op.byte_size();
  serial::Encoder enc(frame);
  enc.write_u64(tx.value());
  enc.write_varint(ops.size());
  for (const auto& op : ops) op.serialize(enc);
  if (weak != nullptr) weak->serialize(enc);
  return std::move(enc).take();
}
}  // namespace

NodeRuntime::NodeRuntime(Platform& platform, NodeId id)
    : p_(platform), id_(id),
      storage_(storage::SegmentLogConfig{platform.config().segment_bytes}),
      qm_(storage_), rm_(storage_),
      txm_(id, platform.sim(), platform.net(), storage_, &platform.spans()),
      ship_(platform, id, txm_, qm_, storage_) {
  txm_.register_participant(qm_);
  txm_.register_participant(rm_);
  txm_.set_apply_listener([this] {
    if (up_) pump();
  });
  if (platform.config().lock_audit) rm_.enable_lock_audit();
  txm_.set_group_commit(platform.config().group_commit_window,
                        platform.config().group_commit_flush_us);
  txm_.set_checkpoint(platform.config().checkpoint_interval_bytes,
                      platform.config().checkpoint_write_us);
  qm_.set_clock([this] { return p_.sim().now(); });
  // Delta migrations hand the receiver's reconstructed agent to the first
  // execution of its staged record; a staging that aborts drops it.
  ship_.set_handoff_listener(
      [this](const QueueRecord& rec, std::unique_ptr<Agent> agent) {
        resident_[rec.agent] = Resident{rec.record_id, std::move(agent)};
      });
  qm_.set_abort_listener([this](const QueueRecord& rec) {
    const auto it = resident_.find(rec.agent);
    if (it != resident_.end() && it->second.record_id == rec.record_id) {
      resident_.erase(it);
    }
  });

  // Metrics registry (DESIGN.md §12): every stats counter of this node's
  // subsystems under a dotted name, so one snapshot reports the node
  // uniformly. The structs stay the hot-path write sites; the registry
  // only holds pointers.
  const auto& st = storage_.stats();
  metrics_.register_counter("storage.bytes_written", &st.bytes_written);
  metrics_.register_counter("storage.kv_writes", &st.kv_writes);
  metrics_.register_counter("storage.queue_ops", &st.queue_ops);
  metrics_.register_counter("storage.record_appends", &st.record_appends);
  metrics_.register_counter("storage.record_resets", &st.record_resets);
  metrics_.register_counter("storage.sync_batches", &st.sync_batches);
  metrics_.register_counter("storage.ship_bytes_received",
                            &st.ship_bytes_received);
  metrics_.register_counter("storage.ship_bytes_reconstructed",
                            &st.ship_bytes_reconstructed);
  metrics_.register_counter("storage.recovery_replayed_bytes",
                            &st.recovery_replayed_bytes);
  metrics_.register_counter("storage.recovery_segments",
                            &st.recovery_segments);
  metrics_.register_counter("storage.checkpoints_completed",
                            &st.checkpoints_completed);
  const auto& sh = ship_.stats();
  metrics_.register_counter("ship.convoys_sent", &sh.convoys_sent);
  metrics_.register_counter("ship.entries_sent", &sh.entries_sent);
  metrics_.register_counter("ship.full_images", &sh.full_images);
  metrics_.register_counter("ship.delta_ships", &sh.delta_ships);
  metrics_.register_counter("ship.delta_fallbacks", &sh.delta_fallbacks);
  metrics_.register_counter("ship.need_full_retries", &sh.need_full_retries);
  metrics_.register_counter("ship.wire_payload_bytes",
                            &sh.wire_payload_bytes);
  const auto& tx = txm_.stats();
  metrics_.register_counter("tx.inflight_tx", &tx.inflight_tx);
  metrics_.register_counter("tx.coordinator_syncs", &tx.coordinator_syncs);
  metrics_.register_counter("tx.pipeline_depth_max", &tx.pipeline_depth_max);
  metrics_.register_gauge("tx.participant_syncs",
                          [this] { return txm_.participant_syncs(); });
  metrics_.register_counter("agent.resident_hits", &resident_hits_);
  hist_hop_us_ = &metrics_.histogram("hop.latency_us");
  hist_step_us_ = &metrics_.histogram("step.latency_us");
  hist_queue_wait_us_ = &metrics_.histogram("queue.wait_us");
  hist_commit_flush_us_ = &metrics_.histogram("commit.flush_us");
}

void NodeRuntime::record_event(EventKind kind, AgentId agent,
                               std::uint64_t value, std::uint64_t value2,
                               std::uint8_t code) {
  p_.spans().event(kind, id_.value(), agent.value(), p_.sim().now(), value,
                   value2, code);
}

// ---------------------------------------------------------------------------
// Observability plumbing (DESIGN.md §12)
// ---------------------------------------------------------------------------

void NodeRuntime::span_hop_begin(QueueRecord& rec) {
  auto& spans = p_.spans();
  if (!spans.enabled()) return;
  const auto now = p_.sim().now();
  if (!hop_traces_.empty()) {
    if (const auto it = hop_traces_.find(rec.record_id);
        it != hop_traces_.end()) {
      // Re-claim after an abort: resume the stashed hop span and close
      // the lock-wait (backoff + re-admission) window the abort opened.
      rec.hop_span_id = it->second.span_id;
      rec.hop_begin_us = it->second.begin_us;
      if (it->second.lock_wait_since != 0) {
        Span lw;
        lw.trace_id = rec.trace_id;
        lw.span_id = spans.next_id();
        lw.parent = rec.hop_span_id;
        lw.kind = SpanKind::lock_wait;
        lw.node = id_.value();
        lw.agent = rec.agent.value();
        lw.begin_us = it->second.lock_wait_since;
        lw.end_us = now;
        spans.record(std::move(lw));
      }
      hop_traces_.erase(it);
      return;
    }
  }
  // First claim: open the root hop span (its id is needed NOW so the
  // phase children and the successor record can parent to it; the span
  // itself is recorded when the hop closes) and emit the queue-wait.
  // The state lives in THIS record copy — the processing path threads it
  // by value through its continuations, so no lookup table is touched.
  rec.hop_span_id = spans.next_id();
  rec.hop_begin_us = rec.enqueued_us != 0 && rec.enqueued_us <= now
                         ? rec.enqueued_us
                         : now;
  Span qw;
  qw.trace_id = rec.trace_id;
  qw.span_id = spans.next_id();
  qw.parent = rec.hop_span_id;
  qw.kind = SpanKind::queue_wait;
  qw.node = id_.value();
  qw.agent = rec.agent.value();
  qw.begin_us = rec.hop_begin_us;
  qw.end_us = now;
  spans.record(std::move(qw));
  hist_queue_wait_us_->record(now - rec.hop_begin_us);
}

void NodeRuntime::span_hop_end(const QueueRecord& rec) {
  if (rec.hop_span_id == 0) return;  // tracing was off when claimed
  auto& spans = p_.spans();
  if (!spans.enabled()) return;
  const auto now = p_.sim().now();
  Span hop;
  hop.trace_id = rec.trace_id;
  hop.span_id = rec.hop_span_id;
  hop.parent = rec.trace_parent;
  hop.kind = SpanKind::hop;
  hop.node = id_.value();
  hop.agent = rec.agent.value();
  hop.begin_us = rec.hop_begin_us;
  hop.end_us = now;
  if (rec.kind == RecordKind::compensate) hop.code = 1;
  spans.record(std::move(hop));
  hist_hop_us_->record(now - rec.hop_begin_us);
}

void NodeRuntime::span_commit_flush(const QueueRecord& rec,
                                    std::uint64_t begin_us) {
  auto& spans = p_.spans();
  if (!spans.enabled()) return;
  const auto now = p_.sim().now();
  Span cf;
  cf.trace_id = rec.trace_id;
  cf.span_id = spans.next_id();
  cf.parent = rec.hop_span_id;
  cf.kind = SpanKind::commit_flush;
  cf.node = id_.value();
  cf.agent = rec.agent.value();
  cf.begin_us = begin_us;
  cf.end_us = now;
  spans.record(std::move(cf));
  hist_commit_flush_us_->record(now - begin_us);
}

void NodeRuntime::propagate_trace(const QueueRecord& from,
                                  QueueRecord& to) const {
  to.trace_id = from.trace_id;
  to.trace_parent =
      from.hop_span_id != 0 ? from.hop_span_id : from.trace_parent;
}

void NodeRuntime::flight_dump(std::string_view reason) {
  const auto& path = p_.config().flight_dump_path;
  if (path.empty()) return;
  std::ofstream os(path, std::ios::app);
  if (!os) return;
  p_.spans().dump_node(id_.value(), reason, p_.sim().now(), os);
}

std::unique_ptr<Agent> NodeRuntime::decode(const serial::Bytes& bytes) const {
  return decode_agent(p_.agent_types(), bytes);
}

std::shared_ptr<Agent> NodeRuntime::load_committed_agent(
    const storage::QueueRecord& rec) const {
  if (!rec.payload.empty()) return decode(rec.payload);
  const auto* segments = storage_.record_segments(agent_image_key(rec.agent));
  MAR_CHECK_MSG(segments != nullptr,
                "incremental record has no stable agent image");
  return decode_agent_segments(p_.agent_types(), *segments);
}

std::shared_ptr<Agent> NodeRuntime::load_agent_for_step(
    const storage::QueueRecord& rec) {
  const auto it = resident_.find(rec.agent);
  if (it == resident_.end() || it->second.record_id != rec.record_id) {
    return load_committed_agent(rec);
  }
  // Taken, not copied: the step mutates it, so an abort or a retry must
  // re-read the durable state.
  auto agent = std::move(it->second.agent);
  resident_.erase(it);
  ++resident_hits_;
  MAR_DCHECK_MSG(rec.payload.empty() || encode_agent(*agent) == rec.payload,
                 "handed-off agent differs from the staged payload");
  return agent;
}

std::size_t NodeRuntime::committed_agent_bytes(
    const storage::QueueRecord& rec) const {
  if (!rec.payload.empty()) return rec.payload.size();
  const auto* segments = storage_.record_segments(agent_image_key(rec.agent));
  if (segments == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& s : *segments) n += s.size();
  return n;
}

bool NodeRuntime::should_compact(const std::string& key) const {
  const auto interval =
      std::max<std::uint32_t>(1, p_.config().compaction_interval_steps);
  const auto* segments = storage_.record_segments(key);
  // Bound the recovery replay length regardless of sizes.
  return segments != nullptr && segments->size() >= interval + 1;
}

storage::QueueRecord NodeRuntime::stage_incremental_image(
    TxId tx, const Agent& agent, const storage::QueueRecord& prev) {
  const auto key = agent_image_key(agent.id());
  if (!agent.delta_ready()) {
    // The log saw pops / GC / discard this step: not expressible as an
    // append. Rewrite the base (which also resets the delta chain).
    qm_.stage_record_reset(tx, key, encode_agent(agent));
  } else if (!prev.payload.empty()) {
    // First local commit after arrival: the consumed record's payload is
    // exactly the pre-step image — establish it as the base and append
    // this step's delta, all within the step transaction.
    qm_.stage_record_reset(tx, key, prev.payload);
    qm_.stage_record_append(tx, key, encode_agent_delta(agent));
  } else if (should_compact(key)) {
    // Compaction: fold the chain back into one full image.
    qm_.stage_record_reset(tx, key, encode_agent(agent));
  } else {
    qm_.stage_record_append(tx, key, encode_agent_delta(agent));
  }
  storage::QueueRecord rec;
  rec.record_id = p_.next_record_id();
  rec.agent = agent.id();
  rec.kind = RecordKind::execute;
  rec.rollback_target = SavepointId::invalid();
  // payload stays empty: the record area holds the durable image.
  return rec;
}

QueueRecord NodeRuntime::make_record(const Agent& agent, RecordKind kind,
                                     SavepointId rollback_target) {
  QueueRecord rec;
  rec.record_id = p_.next_record_id();
  rec.agent = agent.id();
  rec.kind = kind;
  rec.rollback_target = rollback_target;
  rec.payload = encode_agent(agent);
  return rec;
}

template <class F>
void NodeRuntime::after(sim::TimeUs delay, F fn) {
  const auto epoch = epoch_;
  // mar-lint: epoch-owned (a crash or recovery bumps epoch_)
  p_.sim().schedule_after(delay, [this, epoch, fn = std::move(fn)]() mutable {
    if (epoch == epoch_) fn();
  });
}

template <class F>
void NodeRuntime::serve_remote(NodeId caller, TxId tx, sim::TimeUs service,
                               const char* reply_type, F serve) {
  txm_.note_remote_staged(tx);
  after(service,
        [this, caller, reply_type, serve = std::move(serve)]() mutable {
          p_.net().send(net::Message{id_, caller, reply_type, serve()});
        });
}

void NodeRuntime::enqueue_initial(QueueRecord record) {
  record.enqueued_us = p_.sim().now();
  storage_.enqueue(std::move(record), /*transfer=*/false);
  pump();
}

void NodeRuntime::pump() {
  if (!up_) return;
  const auto slot_cap =
      std::max<std::uint32_t>(1, p_.config().node_concurrency);
  while (slots_.size() < slot_cap) {
    const QueueRecord* next = qm_.next_eligible(busy_agents_);
    if (next == nullptr) return;
    const auto record_id = next->record_id;
    MAR_CHECK(qm_.claim(record_id));
    slots_.insert(record_id);
    busy_agents_.insert(next->agent);
    after(0, [this, record_id] { process_record(record_id); });
  }
}

void NodeRuntime::release_slot(const QueueRecord& rec) {
  qm_.release(rec.record_id);
  slots_.erase(rec.record_id);
  busy_agents_.erase(rec.agent);
}

std::uint32_t NodeRuntime::attempt_count(std::uint64_t record_id) const {
  auto it = attempts_.find(record_id);
  return it == attempts_.end() ? 0 : it->second;
}

void NodeRuntime::process_record(std::uint64_t record_id) {
  if (!up_ || !slots_.contains(record_id)) return;
  const QueueRecord* found = storage_.find_record(record_id);
  MAR_CHECK_MSG(found != nullptr, "claimed record vanished from the queue");
  QueueRecord rec = *found;  // stable copy; the queue owns the original
  span_hop_begin(rec);
  try {
    // Multi-agent executions (Sec. 6): a requested cancellation takes
    // effect at the next step boundary — exactly here, before the record
    // is processed. In-flight rollbacks are never interrupted.
    if (rec.kind != RecordKind::compensate &&
        p_.cancel_requested(rec.agent)) {
      execute_cancel(rec);
      return;
    }
    switch (rec.kind) {
      case RecordKind::execute:
        execute_step(rec);
        return;
      case RecordKind::compensate:
        execute_compensation(rec);
        return;
      case RecordKind::launch:
        execute_launch(rec);
        return;
    }
  } catch (const resource::LockAuditError&) {
    // Post-mortem artifact before the validator's hard failure unwinds
    // the run: the node's recent spans show what led into the cycle.
    flight_dump("lock_audit");
    throw;
  }
  MAR_CHECK_MSG(false, "unknown queue record kind");
}

void NodeRuntime::execute_launch(const QueueRecord& rec) {
  // The spawn committed with the parent's step; this record only routes
  // the child to its first step's node, with the usual retry machinery.
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = decode(rec.payload);
  hand_off(tx, rec,
           make_record(*agent, RecordKind::execute, SavepointId::invalid()),
           current_step(*agent).locations, agent, MigrateCause::launch);
}

void NodeRuntime::execute_cancel(const QueueRecord& rec) {
  std::shared_ptr<Agent> agent = load_committed_agent(rec);
  const auto target = agent->log().first_savepoint();
  if (!target.valid()) {
    // Sec. 4.4.2: a complete rollback (abort) is only possible while the
    // first top-level sub-itinerary executes. The log was discarded: the
    // cancellation is void; the agent runs on to completion.
    p_.clear_cancel(rec.agent);
    if (rec.kind == RecordKind::execute) {
      execute_step(rec);
    } else {
      execute_launch(rec);
    }
    return;
  }
  p_.clear_cancel(rec.agent);
  record_event(EventKind::rollback_begin, rec.agent, target.value(), 0,
               as_code(QueueRecord::Completion::cancel));
  initiate_cancel_rollback(rec, target);
}

void NodeRuntime::initiate_cancel_rollback(const QueueRecord& rec,
                                           SavepointId target) {
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  // The cancel consumes the record without running its step: drop the
  // record's resident agent, if any.
  resident_.erase(rec.agent);
  std::shared_ptr<Agent> agent = load_committed_agent(rec);
  auto& log = agent->log();
  for (auto sp = log.trailing_savepoint(); sp.has_value() && *sp != target;
       sp = log.trailing_savepoint()) {
    (void)log.pop();
  }
  if (log.trailing_savepoint() == target) {
    // Nothing committed since launch: terminate right away.
    terminate(tx, rec, *agent, AgentOutcome::State::cancelled,
              Status(Errc::tx_aborted, "cancelled"));
    return;
  }
  const auto dests =
      next_compensation_nodes(log, *agent, committed_agent_bytes(rec));
  if (dests.empty()) {
    fail_agent(tx, rec, Status(Errc::protocol_error,
                               "cancel: rollback log has no end-of-step"));
    return;
  }
  QueueRecord comp_rec = make_record(*agent, RecordKind::compensate, target);
  comp_rec.completion = QueueRecord::Completion::cancel;
  hand_off(tx, rec, std::move(comp_rec), dests, agent, MigrateCause::cancel);
}

void NodeRuntime::retry_later(const QueueRecord& rec) {
  const auto backoff =
      p_.config().retry_backoff_us +
      p_.rng().next_below(p_.config().retry_backoff_us + 1);
  // The abort -> re-claim window is the hop's lock-wait phase. The open
  // hop span rode this attempt's record copy; stash it so the re-claim
  // (a fresh copy of the queued original) can resume the same span and
  // close the lock-wait window.
  if (rec.hop_span_id != 0 && p_.spans().enabled()) {
    auto& ht = hop_traces_[rec.record_id];
    if (ht.span_id == 0) {
      ht.span_id = rec.hop_span_id;
      ht.begin_us = rec.hop_begin_us;
      ht.lock_wait_since = p_.sim().now();
    }
  }
  after(backoff, [this] { pump(); });
}

void NodeRuntime::on_node_state(bool up) {
  // The epoch bump cancels every pending continuation; the slot and claim
  // wipes invalidate all in-flight executions at once. Their records are
  // still queued (removal only commits), so recovery re-offers them.
  ++epoch_;
  up_ = up;
  record_event(up ? EventKind::recover : EventKind::crash, AgentId());
  if (!up) flight_dump("crash");  // post-mortem before volatile state goes
  slots_.clear();
  busy_agents_.clear();
  resident_.clear();  // volatile cache; recovery decodes from the record area
  hop_traces_.clear();  // re-offered records open fresh hop spans
  storage_.clear_claims();
  for (const auto& [tx, waiter] : waiters_) p_.sim().cancel(waiter.timeout);
  waiters_.clear();
  ship_.on_node_state(up);
  if (up) {
    // Rebuild the record read path BEFORE the tx layer re-drives decided
    // commits: commit_locals may apply staged record ops on top of it.
    // The replay of the checksummed log may truncate a torn tail, or
    // throw CorruptionError on mid-log damage.
    storage::RecoveryReport report;
    try {
      report = storage_.recover_records();
    } catch (const storage::CorruptionError&) {
      flight_dump("corruption");
      throw;
    }
    // The replay is instantaneous in simulated time (its cost is a byte
    // meter, A8's subject); the instant carries the replay size.
    record_event(EventKind::storage_recovery, AgentId(), report.replayed_bytes,
                 report.segments_scanned);
    txm_.on_recover();
    pump();
  } else {
    const auto fault = p_.config().storage_fault;
    if (fault != storage::StorageFault::none) {
      // Crash-time damage: deterministic in the platform seed, drawn only
      // when a fault is configured so clean runs stay bit-identical.
      storage_.inject_storage_fault(fault, p_.rng().next_u64());
    }
    txm_.on_crash();
  }
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void NodeRuntime::handle_message(const net::Message& m) {
  if (m.type.rfind("tx.", 0) == 0) {
    txm_.on_message(m);
    pump();  // a tx.commit may have delivered a queue record
    return;
  }
  if (m.type == ship::msg::convoy) {
    // A remote coordinator's convoy stages agent transfers into our queue
    // (full images or deltas against the channel cache).
    ship_.on_convoy(m);
    return;
  }
  if (m.type == ship::msg::convoy_ack) {
    ship_.on_convoy_ack(m);
    return;
  }
  serial::Decoder dec(m.payload);
  if (m.type == msg::rce_exec || m.type == msg::mce_exec) {
    // Shipped compensation entries, run here (the resource node) inside
    // the coordinator's compensation transaction: resource entries of the
    // optimized algorithm, or (adaptive strategy, Sec. 4.4.1) a mixed
    // step's complete entry list plus a snapshot of the agent's weakly
    // reversible objects. The weak-state mutations travel back with the
    // acknowledgement; they become durable only when the coordinator
    // commits the transaction, so a lost reply or an abort discards them.
    const TxId tx(dec.read_u64());
    std::vector<OperationEntry> ops(dec.read_count());
    for (auto& op : ops) op.deserialize(dec);
    const bool mixed = m.type == msg::mce_exec;
    serial::Value weak;
    if (mixed) weak.deserialize(dec);
    const auto service =
        static_cast<sim::TimeUs>(ops.size()) * p_.config().comp_op_service_us;
    serve_remote(m.from, tx, service, mixed ? msg::mce_ack : msg::rce_ack,
                 [this, tx, mixed, ops = std::move(ops),
                  weak = std::move(weak)]() mutable {
                   Status st = Status::ok();
                   for (const auto& op : ops) {
                     st = run_comp_op(tx, op, mixed ? &weak : nullptr);
                     if (!st.is_ok()) break;
                   }
                   serial::Encoder enc(8 + 1 +
                                       (mixed ? weak.encoded_size() : 0));
                   enc.write_u64(tx.value());
                   enc.write_bool(st.is_ok());
                   if (mixed) weak.serialize(enc);
                   return std::move(enc).take();
                 });
    return;
  }
  if (m.type == contract::msg::invoke) {
    // Remote resource access by RPC: used by the ConTract-style central
    // baseline and available as the Sec. 4.4.1 "further optimization".
    auto req = contract::decode_invoke(m);
    const TxId tx = req.tx;
    serve_remote(m.from, tx, p_.config().resource_op_service_us,
                 contract::msg::result, [this, req = std::move(req)] {
                   Status st;
                   if (req.comp_op.empty()) {
                     st = rm_.invoke(req.tx, req.resource, req.op,
                                     req.params)
                              .status();
                   } else {
                     // A shipped compensating operation in a
                     // resource-entry context.
                     rollback::CompensationContext ctx(
                         rollback::OpEntryKind::resource, req.params,
                         p_.sim().now(), &rm_, req.tx, nullptr);
                     st = p_.compensations().run(req.comp_op, ctx);
                   }
                   return contract::encode_result(req.tx, st);
                 });
    return;
  }
  if (m.type == msg::rce_ack || m.type == msg::mce_ack ||
      m.type == contract::msg::result) {
    // Every reply starts with the tx of its call.
    const auto it = waiters_.find(TxId(dec.read_u64()));
    if (it == waiters_.end() || m.type != it->second.reply_type) {
      return;  // timed out, duplicate, or not the awaited kind
    }
    auto waiter = waiters_.extract(it);
    p_.sim().cancel(waiter.mapped().timeout);
    waiter.mapped().on_reply(&dec);
    return;
  }
  MAR_CHECK_MSG(false, "unknown message type " << m.type);
}

// ---------------------------------------------------------------------------
// Transfer / commit plumbing
// ---------------------------------------------------------------------------

void NodeRuntime::stage_and_commit(TxId tx, NodeId dest, QueueRecord record,
                                   std::shared_ptr<const Agent> agent,
                                   std::function<void(bool)> done) {
  // A full-payload handoff (migration, rollback, launch, resume)
  // supersedes any incremental image this node still holds for the agent:
  // drop the record-area state within the same transaction.
  if (!record.payload.empty()) {
    const auto key = agent_image_key(record.agent);
    if (storage_.has_record(key)) qm_.stage_record_erase(tx, key);
  }
  if (dest == id_) {
    qm_.stage_enqueue(tx, std::move(record));
    txm_.commit_async(tx, std::move(done));
    return;
  }
  // Remote staging rides the destination's convoy: the shipment manager
  // batches transfers, delta-ships against the channel cache and handles
  // full-image fallback and timeouts.
  // The convoy frame carries the PREPARE, so the commit machinery starts
  // now: one round trip covers transfer + vote, and the batched decision
  // flush amortizes the coordinator sync across every transaction decided
  // in the window. The continuation in `done` re-pumps the scheduler slot
  // at ack drain. Until the staged ack the shipment timeout owns the
  // failure window; it aborts only while votes are still outstanding
  // (once decided, it is stale). From the staged ack on, the PREPARE
  // re-drive covers a lost vote.
  txm_.enlist_remote(tx, dest);
  txm_.note_piggybacked(tx, dest);
  ship_.stage_remote(tx, dest, std::move(record), std::move(agent),
                     [this, tx, dest](bool ok) {
                       if (ok) {
                         txm_.note_staged(tx, dest);
                       } else {
                         txm_.abort_if_preparing(tx);
                       }
                     });
  txm_.commit_async(tx, std::move(done));
}

void NodeRuntime::hand_off(TxId tx, const QueueRecord& rec, QueueRecord next,
                           const std::vector<NodeId>& dests,
                           std::shared_ptr<const Agent> agent,
                           MigrateCause cause) {
  // Rotate through the candidates on repeated failures (fault-tolerant
  // execution, ref [11]; Sec. 4.3's alternative compensation nodes).
  const NodeId dest = dests[attempt_count(rec.record_id) % dests.size()];
  propagate_trace(rec, next);
  if (dest != id_) {
    if (next.kind == RecordKind::compensate) ++p_.rollback_transfers();
    record_event(EventKind::migrate, rec.agent, dest.value(),
                 next.payload.size(), as_code(cause));
  }
  stage_and_commit(
      tx, dest, std::move(next), std::move(agent), [this, rec](bool committed) {
        const bool comp = rec.kind == RecordKind::compensate;
        release_slot(rec);
        if (committed) {
          if (comp) record_event(EventKind::comp_commit, rec.agent);
          span_hop_end(rec);
          attempts_.erase(rec.record_id);
          pump();
        } else {
          if (comp) {
            record_event(EventKind::comp_abort, rec.agent, 0, 0,
                         as_code(Errc::tx_aborted));
          }
          ++attempts_[rec.record_id];
          retry_later(rec);
        }
      });
}

void NodeRuntime::fail_agent(TxId tx, const QueueRecord& rec, Status status) {
  txm_.abort_tx(tx);
  const TxId cleanup = txm_.begin();
  qm_.stage_remove(cleanup, rec.record_id);
  // Multi-agent executions: a waiting parent learns of the failure
  // through the mailbox, within the same cleanup transaction.
  terminate(cleanup, rec, *load_committed_agent(rec),
            AgentOutcome::State::failed, std::move(status));
}

void NodeRuntime::terminate(TxId tx, const QueueRecord& rec,
                            const Agent& agent, AgentOutcome::State state,
                            Status status) {
  const auto image_key = agent_image_key(rec.agent);
  if (storage_.has_record(image_key)) qm_.stage_record_erase(tx, image_key);
  // A failed agent ends in its committed state: the record's payload,
  // when it carries one, is that state's image.
  serial::Bytes final_bytes =
      state == AgentOutcome::State::failed && !rec.payload.empty()
          ? rec.payload
          : encode_agent(agent);
  const auto commit_begin = p_.sim().now();
  // Multi-agent executions: the result is delivered to the parent's
  // mailbox within this terminal transaction — exactly once.
  deliver_result(
      tx, agent, state == AgentOutcome::State::done, status,
      [this, tx, rec, state, status, commit_begin,
       final_bytes = std::move(final_bytes)](bool delivered) mutable {
        if (!delivered) {
          txm_.abort_tx(tx);
          release_slot(rec);
          retry_later(rec);
          return;
        }
        txm_.commit_async(tx, [this, rec, state, status, commit_begin,
                               final_bytes = std::move(final_bytes)](
                                  bool committed) mutable {
          if (!committed) {
            release_slot(rec);
            retry_later(rec);
            return;
          }
          if (state == AgentOutcome::State::done) {
            record_event(EventKind::step_commit, rec.agent, rec.record_id, 0,
                         1);
          } else if (state == AgentOutcome::State::cancelled) {
            record_event(EventKind::rollback_done, rec.agent, 0, 0,
                         as_code(QueueRecord::Completion::cancel));
          }
          AgentOutcome out;
          out.state = state;
          out.status = std::move(status);
          out.final_agent = std::move(final_bytes);
          out.final_node = id_;
          out.finished_at = p_.sim().now();
          p_.record_outcome(rec.agent, std::move(out));
          ship_.forget_agent(rec.agent);
          span_commit_flush(rec, commit_begin);
          span_hop_end(rec);
          attempts_.erase(rec.record_id);
          release_slot(rec);
          pump();
        });
      });
}

void NodeRuntime::deliver_result(TxId tx, const Agent& agent, bool ok,
                                 const Status& error,
                                 std::function<void(bool)> done) {
  if (agent.result_key().empty()) {
    done(true);
    return;
  }
  // The result record the parent's join_child() takes from the mailbox.
  serial::Value record = serial::Value::empty_map();
  record.set("ok", ok);
  record.set("agent", static_cast<std::int64_t>(agent.id().value()));
  if (ok) {
    record.set("result", agent.data().weak_image().has("result")
                             ? agent.data().weak_image().at("result")
                             : agent.data().weak_image());
  } else {
    record.set("error", error.to_string());
  }
  serial::Value params = serial::Value::empty_map();
  params.set("key", agent.result_key());
  params.set("value", std::move(record));

  if (agent.result_node() == id_) {
    done(rm_.invoke(tx, "mailbox", "put", params).is_ok());
    return;
  }
  // Remote delivery: a transactional RPC to the mailbox node, enlisted in
  // this transaction (the Sec. 4.4.1 RPC mechanism) — delivery commits
  // atomically with the agent's terminal transaction.
  call_remote(tx, agent.result_node(), contract::msg::invoke,
              contract::encode_invoke(tx, "mailbox", "put", params, ""),
              contract::msg::result, /*transfer_slack=*/0,
              [done = std::move(done)](serial::Decoder* reply) {
                done(reply != nullptr &&
                     static_cast<Errc>(reply->read_u8()) == Errc::ok);
              });
}

void NodeRuntime::call_remote(TxId tx, NodeId dest, const char* type,
                              serial::Bytes request, const char* reply_type,
                              sim::TimeUs transfer_slack, Reply on_reply) {
  txm_.enlist_remote(tx, dest);
  const auto timeout =
      p_.config().stage_timeout_us +
      transfer_slack * p_.net().transfer_time(id_, dest, request.size());
  p_.net().send(net::Message{id_, dest, type, std::move(request)});
  const auto [it, fresh] =
      waiters_.try_emplace(tx, Waiter{reply_type, std::move(on_reply), {}});
  MAR_CHECK_MSG(fresh, "a transaction waits for one remote call at a time");
  if (p_.config().stage_timeout_us > 0) {
    it->second.timeout = p_.sim().schedule_after(timeout, [this, tx] {
      // Armed only while the call waits: its reply or a crash cancels it.
      waiters_.extract(tx).mapped().on_reply(nullptr);
    });
  }
}

// ---------------------------------------------------------------------------
// Step execution (exactly-once protocol of ref [11])
// ---------------------------------------------------------------------------

void NodeRuntime::execute_step(const QueueRecord& rec) {
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = load_agent_for_step(rec);
  MAR_CHECK_MSG(std::as_const(*agent).itinerary().valid_step(
                    agent->position()),
                "agent position does not address a step");
  const StepEntry step = current_step(*agent);
  record_event(EventKind::step_begin, rec.agent, rec.record_id);

  StepContext ctx(id_, p_.sim().now(), tx, *agent, rm_, p_.rng());
  if (step.when.has_value() &&
      !step.when->eval(agent->data().weak_image())) {
    // Ref [14] preconditions: an unsatisfied step is skipped — the step
    // transaction still runs (empty), keeping the itinerary bookkeeping
    // and exactly-once machinery uniform.
  } else {
    agent->run_step(step.method, ctx);
  }

  if (ctx.fatal()) {
    // Lock conflict / forced abort: undo and restart the step later. A
    // lock conflict here is the multiprogramming cost of concurrent slots
    // (or of a sibling agent) — count it so A4 can report the contention.
    if (ctx.fatal_status().code() == Errc::lock_conflict) {
      ++p_.lock_conflict_aborts();
    }
    txm_.abort_tx(tx);
    record_event(EventKind::step_abort, rec.agent, rec.record_id, 0,
                 as_code(ctx.fatal_status().code()));
    ++attempts_[rec.record_id];
    release_slot(rec);
    retry_later(rec);
    return;
  }

  if (ctx.failed_permanently()) {
    // The step cannot succeed, ever (e.g. missing permission, Sec. 1).
    // Flexible-itinerary semantics: try the next option of the innermost
    // enclosing alternatives entry (ref [14]); otherwise abandon the
    // innermost non-vital sub-itinerary (Sec. 5); otherwise the agent
    // fails.
    auto pre_agent = load_committed_agent(rec);
    txm_.abort_tx(tx);
    record_event(EventKind::step_abort, rec.agent, rec.record_id, 0,
                 as_code(ctx.permanent_status().code()));
    const auto plan = failure_plan_for(*pre_agent);
    if (!plan.has_value()) {
      const TxId dummy = txm_.begin();
      fail_agent(dummy, rec, ctx.permanent_status());
      return;
    }
    const auto check = check_rollback_target(*pre_agent, plan->target);
    if (!check.is_ok()) {
      const TxId dummy = txm_.begin();
      fail_agent(dummy, rec, check);
      return;
    }
    record_event(EventKind::rollback_begin, rec.agent, plan->target.value(),
                 0, as_code(plan->completion));
    initiate_rollback(rec, plan->target, plan->completion);
    return;
  }

  if (ctx.rollback_request().has_value()) {
    // Fig. 4a/5a: abort the step transaction; the agent state and log read
    // from stable storage (the queue record) are the pre-step state.
    auto pre_agent = load_committed_agent(rec);
    const auto target =
        resolve_rollback_target(*pre_agent, *ctx.rollback_request());
    txm_.abort_tx(tx);
    record_event(EventKind::step_abort, rec.agent, rec.record_id, 0,
                 as_code(Errc::ok));
    if (!target.is_ok()) {
      const TxId dummy = txm_.begin();
      fail_agent(dummy, rec, target.status());
      return;
    }
    const auto completion = ctx.rollback_request()->skip
                                ? QueueRecord::Completion::skip_sub
                                : QueueRecord::Completion::resume;
    record_event(EventKind::rollback_begin, rec.agent, target.value().value(),
                 0, as_code(completion));
    initiate_rollback(rec, target.value(), completion);
    return;
  }

  complete_step(tx, rec, std::move(agent), ctx);
}

SavepointId NodeRuntime::savepoint_at_depth(const Agent& agent,
                                            std::uint32_t depth) {
  const auto& stack = agent.savepoint_stack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->origin == rollback::SavepointOrigin::sub_itinerary &&
        it->depth == depth) {
      return it->id;
    }
  }
  return SavepointId::invalid();
}

std::optional<NodeRuntime::FailurePlan> NodeRuntime::failure_plan_for(
    const Agent& agent) const {
  const auto& itinerary = agent.itinerary();
  const auto levels = Itinerary::active_subs(agent.position());
  for (auto p = levels.rbegin(); p != levels.rend(); ++p) {
    const auto depth = static_cast<std::uint32_t>(p->size());
    switch (itinerary.prefix_kind(*p)) {
      case Itinerary::PrefixKind::alt_option: {
        // Untried options left? Roll this option back and enter the next.
        if (p->back() + 1 < itinerary.alt_option_count(*p)) {
          const auto sp = savepoint_at_depth(agent, depth);
          if (sp.valid()) {
            return FailurePlan{sp, QueueRecord::Completion::next_alt};
          }
        }
        break;  // options exhausted: keep searching outward
      }
      case Itinerary::PrefixKind::sub: {
        if (!itinerary.entry_at(*p).vital()) {
          const auto sp = savepoint_at_depth(agent, depth);
          if (sp.valid()) {
            return FailurePlan{sp, QueueRecord::Completion::skip_sub};
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return std::nullopt;
}

void NodeRuntime::complete_step(TxId tx, const QueueRecord& rec,
                                std::shared_ptr<Agent> agent,
                                StepContext& ctx) {
  const StepEntry step = current_step(*agent);
  auto& log = agent->log();

  // Multi-agent executions (Sec. 6): prepare and stage the children
  // spawned during this step. Their launch records enter THIS node's
  // queue within the step transaction, so spawns commit atomically with
  // the step — exactly once, like any other step effect.
  std::vector<AgentId> spawned;
  for (auto& spawn : ctx.spawns()) {
    auto child = p_.prepare_child(*spawn.child, agent->id(), id_,
                                  spawn.result_node, spawn.result_key);
    MAR_CHECK_MSG(child.is_ok(),
                  "spawned child is invalid: " << child.status());
    QueueRecord launch_rec;
    launch_rec.record_id = p_.next_record_id();
    launch_rec.agent = child.value();
    launch_rec.kind = RecordKind::launch;
    launch_rec.payload = encode_agent(*spawn.child);
    qm_.stage_enqueue(tx, std::move(launch_rec));
    spawned.push_back(child.value());
  }

  // Append the step's log segment: BOS, OE..., EOS (Sec. 4.2, Fig. 2).
  log.push(rollback::BeginOfStepEntry{id_, step.method});
  bool has_mixed = false;
  for (const auto& op : ctx.logged_ops()) {
    has_mixed = has_mixed || op.kind == OpEntryKind::mixed;
    log.push(op);
  }
  // Compensating a spawn cancels the child; logged after the step's own
  // entries so that (in reverse execution order) children are cancelled
  // before the step's other effects are compensated.
  for (const auto child : spawned) {
    serial::Value params = serial::Value::empty_map();
    params.set("child", static_cast<std::int64_t>(child.value()));
    log.push(OperationEntry{OpEntryKind::agent, "sys.cancel_child",
                            std::move(params), NodeId::invalid(),
                            std::string{}});
  }
  rollback::EndOfStepEntry eos;
  eos.node = id_;
  eos.has_mixed = has_mixed;
  eos.cannot_compensate = ctx.not_compensatable();
  for (const auto n : step.locations) {
    if (n != id_) eos.alternatives.push_back(n);
  }
  log.push(std::move(eos));

  // Advance the itinerary; write savepoints; GC/discard (Sec. 4.4.2).
  const Position from = agent->position();
  const auto next = std::as_const(*agent).itinerary().next_step(from);
  p_.advance_itinerary(id_, *agent, from, next, ctx.requested_savepoints());
  if (next.has_value()) {
    agent->set_position(*next);
  } else {
    agent->set_run_state(Agent::RunState::done);
  }

  const auto service = static_cast<sim::TimeUs>(ctx.resource_ops_invoked()) *
                       p_.config().resource_op_service_us;
  const auto exec_begin = p_.sim().now();
  after(service, [this, tx, rec, agent = std::move(agent), spawned,
                  exec_begin] {
    if (p_.spans().enabled()) {
      // The step body plus its modeled service time — the hop's
      // step-exec phase (the commit phase starts right here).
      Span se;
      se.trace_id = rec.trace_id;
      se.span_id = p_.spans().next_id();
      se.parent = rec.hop_span_id;
      se.kind = SpanKind::step_exec;
      se.node = id_.value();
      se.agent = rec.agent.value();
      se.begin_us = exec_begin;
      se.end_us = p_.sim().now();
      p_.spans().record(std::move(se));
    }
    if (agent->run_state() == Agent::RunState::done) {
      terminate(tx, rec, *agent, AgentOutcome::State::done, Status::ok());
      return;
    }
    // Route to the next step's node; rotate through the alternatives on
    // repeated failures (fault-tolerant execution, ref [11]).
    const StepEntry next_step = current_step(*agent);
    const auto attempt = attempt_count(rec.record_id);
    const NodeId dest =
        next_step.locations[attempt % next_step.locations.size()];
    // The hot path: when the agent stays on this node, commit only the
    // step's delta into its append-only stable record — O(changed state)
    // instead of O(total state). Spawning steps write a full image (the
    // children's launch records reference the parent's committed state).
    const bool incremental =
        p_.config().incremental_commit && dest == id_ && spawned.empty();
    QueueRecord next_rec;
    if (incremental) {
      next_rec = stage_incremental_image(tx, *agent, rec);
      // From here on the in-memory agent matches the staged durable image;
      // the next delta (if the commit succeeds) starts at this state.
      agent->mark_commit_baseline();
    } else {
      next_rec =
          make_record(*agent, RecordKind::execute, SavepointId::invalid());
    }
    propagate_trace(rec, next_rec);
    if (dest != id_) {
      record_event(EventKind::migrate, rec.agent, dest.value(),
                   next_rec.payload.size(), as_code(MigrateCause::step));
    }
    const auto commit_begin = p_.sim().now();
    const auto next_record = next_rec.record_id;
    stage_and_commit(tx, dest, std::move(next_rec), agent,
                     [this, rec, spawned, agent, incremental, next_record,
                      exec_begin, commit_begin](bool committed) {
                       if (committed) {
                         record_event(EventKind::step_commit, rec.agent,
                                      rec.record_id);
                         // Commit wait: group-commit flush for local
                         // handoffs, flush + convoy round trip for
                         // migrations (its convoy-wait / wire children
                         // land from the shipment manager).
                         span_commit_flush(rec, commit_begin);
                         if (p_.spans().enabled()) {
                           hist_step_us_->record(p_.sim().now() - exec_begin);
                         }
                         span_hop_end(rec);
                         attempts_.erase(rec.record_id);
                         if (incremental) {
                           // Keep the committed state resident: the next
                           // local step skips the full decode entirely.
                           resident_[rec.agent] = Resident{next_record, agent};
                         }
                       } else {
                         record_event(EventKind::step_abort, rec.agent,
                                      rec.record_id, 0,
                                      as_code(Errc::tx_aborted));
                         ++attempts_[rec.record_id];
                         // The spawns died with the transaction; the step
                         // will re-execute and re-spawn under fresh ids.
                         for (const auto child : spawned) {
                           p_.forget_agent(child);
                         }
                       }
                       release_slot(rec);
                       if (committed) {
                         pump();
                       } else {
                         retry_later(rec);
                       }
                     });
  });
}

// ---------------------------------------------------------------------------
// Rollback (Sec. 4.3 / 4.4)
// ---------------------------------------------------------------------------

Result<SavepointId> NodeRuntime::resolve_rollback_target(
    const Agent& agent, const RollbackRequest& request) const {
  SavepointId target = SavepointId::invalid();
  if (std::holds_alternative<SavepointId>(request.target)) {
    target = std::get<SavepointId>(request.target);
  } else {
    target = agent.sub_savepoint(std::get<std::uint32_t>(request.target));
  }
  if (!target.valid()) {
    return Status(Errc::not_found, "no such rollback target");
  }
  MAR_RETURN_IF_ERROR(check_rollback_target(agent, target));
  return target;
}

Status NodeRuntime::check_rollback_target(const Agent& agent,
                                          SavepointId target) const {
  const auto& log = agent.log();
  if (!log.contains_savepoint(target)) {
    return Status(Errc::not_found,
                  "savepoint " + std::to_string(target.value()) +
                      " is not in the rollback log");
  }
  // Sec. 3.2: a step containing a non-compensatable operation cannot be
  // rolled back after commit — scan the segment that would be compensated.
  if (log.poisoned_after(target)) {
    return Status(Errc::not_compensatable,
                  "a step between here and the target savepoint is not "
                  "compensatable");
  }
  return Status::ok();
}

void NodeRuntime::initiate_rollback(const QueueRecord& rec,
                                    SavepointId target,
                                    QueueRecord::Completion completion) {
  // Fig. 4a / 5a: new transaction; read agent + LOG from stable storage.
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = load_committed_agent(rec);
  auto& log = agent->log();

  // Trailing savepoints that are not the target are dead: they belong to
  // sub-itineraries being rolled back (this is the "tested before the
  // agent is written to stable storage" of Fig. 4b, generalized to the
  // nested case where several savepoints were established back-to-back).
  for (auto sp = log.trailing_savepoint(); sp.has_value() && *sp != target;
       sp = log.trailing_savepoint()) {
    (void)log.pop();
  }

  if (log.trailing_savepoint() == target) {
    // The savepoint was set directly before the aborting step: the
    // rollback is already finished; start the next step transaction.
    record_event(EventKind::rollback_done, rec.agent, target.value(), 0,
                 as_code(completion));
    agent->note_rollback_completed();
    if (completion == QueueRecord::Completion::skip_sub &&
        !apply_skip(*agent, target)) {
      terminate(tx, rec, *agent, AgentOutcome::State::done, Status::ok());
      return;
    }
    if (completion == QueueRecord::Completion::next_alt) {
      apply_next_alternative(*agent, target);
    }
    hand_off(tx, rec,
             make_record(*agent, RecordKind::execute, SavepointId::invalid()),
             current_step(*agent).locations, agent, MigrateCause::resume);
    return;
  }

  // Send the agent (or just the record, when it can stay) towards the
  // first compensation transaction.
  const auto dests =
      next_compensation_nodes(log, *agent, committed_agent_bytes(rec));
  if (dests.empty()) {
    fail_agent(tx, rec, Status(Errc::protocol_error,
                               "rollback log has no end-of-step entry"));
    return;
  }
  QueueRecord comp_rec = make_record(*agent, RecordKind::compensate, target);
  comp_rec.completion = completion;
  hand_off(tx, rec, std::move(comp_rec), dests, agent, MigrateCause::rollback);
}

std::vector<NodeId> NodeRuntime::next_compensation_nodes(
    const rollback::RollbackLog& log, const Agent& agent,
    std::size_t agent_bytes) const {
  const auto eos = log.last_end_of_step();
  if (!eos.has_value()) return {};
  const auto strategy = p_.config().strategy;
  std::vector<NodeId> dests;
  if (strategy != RollbackStrategy::basic && !eos->has_mixed) {
    // Fig. 5a/5b: without a mixed compensation entry the agent stays where
    // it is; resource compensation entries are shipped instead.
    dests.push_back(id_);
    return dests;
  }
  if (strategy == RollbackStrategy::adaptive && eos->node != id_ &&
      ship_mixed_is_cheaper(log, agent, eos->node, agent_bytes)) {
    // Sec. 4.4.1 "further optimizations": the performance model says
    // shipping the compensation objects beats transferring the agent.
    dests.push_back(id_);
    return dests;
  }
  dests.push_back(eos->node);
  for (const auto n : eos->alternatives) dests.push_back(n);
  return dests;
}

bool NodeRuntime::ship_mixed_is_cheaper(const rollback::RollbackLog& log,
                                        const Agent& agent, NodeId dest,
                                        std::size_t agent_bytes) const {
  // Price the two options with the ref [16] cost structure (latency +
  // size/bandwidth), evaluated on the actual link parameters:
  //   ship:    request (operation entries + weak-state snapshot) there,
  //            reply (updated weak state) back;
  //   migrate: the whole agent — state, itinerary and attached rollback
  //            log — travels there (and would later have to travel on).
  std::size_t ops_bytes = 0;
  for (const auto& op : log.last_step_ops()) ops_bytes += op.byte_size();
  const auto weak_bytes = agent.data().weak_image().encoded_size();
  const auto request = ops_bytes + weak_bytes + 16;
  const auto reply = weak_bytes + 16;
  const auto ship_time = p_.net().transfer_time(id_, dest, request) +
                         p_.net().transfer_time(dest, id_, reply);
  const auto migrate_time = p_.net().transfer_time(id_, dest, agent_bytes);
  return ship_time <= migrate_time;
}

Status NodeRuntime::run_comp_op(TxId tx, const OperationEntry& op,
                                serial::Value* weak) {
  rollback::CompensationContext ctx(op.kind, op.params, p_.sim().now(), &rm_,
                                    tx, weak);
  Status st = p_.compensations().run(op.comp_op, ctx);
  record_event(EventKind::comp_op, AgentId(), 0, 0, as_code(st.code()));
  return st;
}

void NodeRuntime::execute_compensation(const QueueRecord& rec) {
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = decode(rec.payload);
  const SavepointId target = rec.rollback_target;
  record_event(EventKind::comp_begin, rec.agent, target.value());
  // Sec. 4.3: strongly reversible objects must not be accessed until the
  // savepoint is reached.
  agent->data().set_mode(DataSpace::Mode::compensating);
  auto& log = agent->log();

  // Fig. 4b/5b: drop trailing savepoint entries (they cannot be the target
  // — that was checked before the agent was written to stable storage).
  for (auto sp = log.trailing_savepoint(); sp.has_value();
       sp = log.trailing_savepoint()) {
    MAR_CHECK_MSG(*sp != target, "target savepoint would be deleted");
    (void)log.pop();
  }
  if (log.empty() || log.kind_at(log.size() - 1) != EntryKind::end_of_step) {
    fail_agent(tx, rec, Status(Errc::protocol_error,
                               "malformed rollback log (no EOS)"));
    return;
  }
  const rollback::EndOfStepEntry eos = log.pop().end_of_step();
  // Collect this step's operation entries; popping yields them in reverse
  // logging order, which is exactly the compensation execution order.
  std::vector<OperationEntry> ops;
  for (;;) {
    MAR_CHECK_MSG(!log.empty(), "rollback log has no begin-of-step entry");
    auto entry = log.pop();
    if (entry.kind() == EntryKind::begin_of_step) break;
    MAR_CHECK(entry.kind() == EntryKind::operation);
    ops.push_back(entry.operation());
  }

  const auto& cfg = p_.config();
  const bool ship_rces = cfg.strategy != RollbackStrategy::basic &&
                         !eos.has_mixed && eos.node != id_;
  // Adaptive strategy (Sec. 4.4.1 "further optimizations"): the routing
  // decision already kept the agent here because shipping the step's
  // operation entries + weak-state snapshot is cheaper than transferring
  // the agent to the resource node.
  const bool ship_mixed = cfg.strategy == RollbackStrategy::adaptive &&
                          eos.has_mixed && eos.node != id_;

  auto comp_failed = [this, tx, rec](Status st) {
    record_event(EventKind::comp_abort, rec.agent, 0, 0, as_code(st.code()));
    const auto attempts = ++attempts_[rec.record_id];
    const auto max = p_.config().max_compensation_attempts;
    if (max > 0 && attempts >= max) {
      // Sec. 3.2: some compensations cannot succeed (e.g. the withdrawn
      // deposit); surface the permanently failed rollback to the owner.
      fail_agent(tx, rec,
                 Status(Errc::compensation_failed,
                        "compensation permanently failed: " + st.to_string()));
      return;
    }
    txm_.abort_tx(tx);
    release_slot(rec);
    retry_later(rec);
  };

  if (ship_mixed) {
    // Ship the complete operation-entry list (mixed entries need both the
    // resource and the weak agent state, so everything must execute in
    // log order at one place — the resource node) together with a weak
    // snapshot; merge the updated weak state back on acknowledgement.
    ++p_.mixed_ships();
    auto request = encode_comp_request(tx, ops, &agent->data().weak_image());
    record_event(EventKind::mce_shipped, rec.agent, eos.node.value(),
                 request.size());
    call_remote(tx, eos.node, msg::mce_exec, std::move(request),
                msg::mce_ack, /*transfer_slack=*/4,
                [this, tx, rec, agent, comp_failed](serial::Decoder* reply) {
                  if (reply == nullptr) {
                    comp_failed(Status(Errc::unreachable,
                                       "mce shipment unacknowledged"));
                    return;
                  }
                  if (!reply->read_bool()) {
                    comp_failed(Status(Errc::compensation_failed,
                                       "shipped mixed compensation failed"));
                    return;
                  }
                  serial::Value weak;
                  weak.deserialize(*reply);
                  *agent->data().weak_slots() = std::move(weak);
                  finish_compensation(tx, rec, agent);
                });
    return;
  }

  if (!ship_rces) {
    // Basic algorithm (Fig. 4b), or a mixed/step-local compensation in the
    // optimized algorithm: everything runs here, sequentially. Sec. 4.3's
    // fault-tolerant extension allows the EOS entry's alternative nodes.
    if (cfg.strategy == RollbackStrategy::basic || eos.has_mixed) {
      const bool allowed =
          eos.node == id_ ||
          cfg.strategy == RollbackStrategy::adaptive ||
          std::find(eos.alternatives.begin(), eos.alternatives.end(), id_) !=
              eos.alternatives.end();
      MAR_CHECK_MSG(allowed,
                    "compensation transaction routed to the wrong node");
    }
    Status st = Status::ok();
    for (const auto& op : ops) {
      st = run_comp_op(tx, op, agent->data().weak_slots());
      if (!st.is_ok()) break;
    }
    const auto service =
        static_cast<sim::TimeUs>(ops.size()) * cfg.comp_op_service_us;
    after(service, [this, tx, rec, agent = std::move(agent), st,
                    comp_failed] {
      if (!st.is_ok()) {
        comp_failed(st);
        return;
      }
      finish_compensation(tx, rec, agent);
    });
    return;
  }

  // Optimized algorithm, no mixed entries (Fig. 5b): group the operation
  // entries; ship the RCE list to the resource node; run the ACE list
  // locally, concurrently with the shipped list.
  std::vector<OperationEntry> aces;
  std::vector<OperationEntry> rces;
  for (auto& op : ops) {
    MAR_CHECK_MSG(op.kind != OpEntryKind::mixed,
                  "mixed entry in a step whose EOS mixed-flag is false");
    (op.kind == OpEntryKind::agent ? aces : rces).push_back(std::move(op));
  }

  struct Join {
    int pending = 0;
    Status status;
  };
  auto join = std::make_shared<Join>();
  auto arrived = [this, tx, rec, agent, join, comp_failed](Status st) {
    if (!st.is_ok() && join->status.is_ok()) join->status = st;
    if (--join->pending > 0) return;
    if (!join->status.is_ok()) {
      comp_failed(join->status);
      return;
    }
    finish_compensation(tx, rec, agent);
  };

  if (!rces.empty()) {
    ++join->pending;
    auto request = encode_comp_request(tx, rces, nullptr);
    record_event(EventKind::rce_shipped, rec.agent, eos.node.value(),
                 request.size());
    call_remote(tx, eos.node, msg::rce_exec, std::move(request),
                msg::rce_ack, /*transfer_slack=*/4,
                [arrived](serial::Decoder* reply) {
                  arrived(reply != nullptr && reply->read_bool()
                              ? Status::ok()
                              : Status(Errc::compensation_failed,
                                       "shipped resource compensation "
                                       "failed"));
                });
  }

  // Agent compensation entries run locally, overlapping the shipped RCEs.
  ++join->pending;
  Status ace_status = Status::ok();
  for (const auto& op : aces) {
    ace_status = run_comp_op(tx, op, agent->data().weak_slots());
    if (!ace_status.is_ok()) break;
  }
  const auto ace_service =
      static_cast<sim::TimeUs>(aces.size()) * cfg.comp_op_service_us;
  after(ace_service, [arrived, ace_status] { arrived(ace_status); });
}

void NodeRuntime::finish_compensation(TxId tx, const QueueRecord& rec,
                                      std::shared_ptr<Agent> agent) {
  const SavepointId target = rec.rollback_target;
  auto& log = agent->log();

  // Dead trailing savepoints (inner sub-itineraries being rolled across)
  // are dropped before the target check — see initiate_rollback.
  for (auto sp = log.trailing_savepoint(); sp.has_value() && *sp != target;
       sp = log.trailing_savepoint()) {
    (void)log.pop();
  }

  if (log.trailing_savepoint() == target) {
    // Target reached: restore the strongly reversible objects from the
    // savepoint entry (without deleting it) and start the next step.
    restore_at_savepoint(*agent, target);
    record_event(EventKind::rollback_done, rec.agent, target.value(), 0,
                 as_code(rec.completion));
    if (rec.completion == QueueRecord::Completion::cancel) {
      // Multi-agent executions: a complete rollback that terminates the
      // agent instead of resuming it.
      terminate(tx, rec, *agent, AgentOutcome::State::cancelled,
                Status(Errc::tx_aborted, "cancelled"));
      return;
    }
    if (rec.completion == QueueRecord::Completion::skip_sub &&
        !apply_skip(*agent, target)) {
      terminate(tx, rec, *agent, AgentOutcome::State::done, Status::ok());
      return;
    }
    if (rec.completion == QueueRecord::Completion::next_alt) {
      apply_next_alternative(*agent, target);
    }
    hand_off(tx, rec,
             make_record(*agent, RecordKind::execute, SavepointId::invalid()),
             current_step(*agent).locations, agent, MigrateCause::resume);
    return;
  }

  // Not there yet: write the agent (and log) towards the next compensation
  // transaction (Fig. 4b), or keep it local when the optimized algorithm
  // can ship the next step's RCEs (Fig. 5b).
  const auto dests = next_compensation_nodes(log, *agent, rec.payload.size());
  if (dests.empty()) {
    fail_agent(tx, rec,
               Status(Errc::protocol_error,
                      "target savepoint not reached but log is exhausted"));
    return;
  }
  QueueRecord comp_rec = make_record(*agent, RecordKind::compensate, target);
  comp_rec.completion = rec.completion;
  hand_off(tx, rec, std::move(comp_rec), dests, agent, MigrateCause::rollback);
}

bool NodeRuntime::apply_skip(Agent& agent, SavepointId target) {
  const auto sp = agent.log().find_savepoint(target);
  MAR_CHECK(sp.has_value());
  MAR_CHECK_MSG(sp->origin == rollback::SavepointOrigin::sub_itinerary,
                "abandon targets must be sub-itinerary savepoints");
  // The abandoned sub-itinerary is the depth-long prefix of the position
  // the savepoint would normally resume at.
  MAR_CHECK(sp->depth > 0 && sp->depth < sp->resume_position.size());
  const Position from = sp->resume_position;
  const Position prefix(from.begin(),
                        from.begin() + static_cast<long>(sp->depth));
  const auto next = std::as_const(agent).itinerary().next_step(prefix);
  // Treat the abandoned sub-itinerary as exited: its savepoint entry is
  // garbage-collected (or the whole log discarded for a top-level sub),
  // and savepoints for newly entered sub-itineraries are established —
  // the same bookkeeping as a normal step boundary (Sec. 4.4.2).
  p_.advance_itinerary(id_, agent, from, next, {});
  if (!next.has_value()) {
    agent.set_run_state(Agent::RunState::done);
    return false;
  }
  agent.set_position(*next);
  return true;
}

void NodeRuntime::apply_next_alternative(Agent& agent, SavepointId target) {
  const auto sp = agent.log().find_savepoint(target);
  MAR_CHECK(sp.has_value());
  MAR_CHECK_MSG(sp->depth >= 2, "alternative option savepoints sit at least "
                                "two levels deep");
  const Position from = sp->resume_position;
  Position option(from.begin(), from.begin() + static_cast<long>(sp->depth));
  const Itinerary& itinerary = std::as_const(agent).itinerary();
  MAR_CHECK(itinerary.prefix_kind(option) ==
            Itinerary::PrefixKind::alt_option);
  Position next_option = option;
  ++next_option.back();
  MAR_CHECK_MSG(next_option.back() < itinerary.alt_option_count(option),
                "no alternative option left to enter");
  const auto next = itinerary.first_step_under(next_option);
  MAR_CHECK_MSG(next.has_value(), "alternative option contains no steps");
  // Exits the failed option (GC its savepoint) and enters the next one
  // (fresh savepoint) — the alternatives entry itself stays active.
  p_.advance_itinerary(id_, agent, from, next, {});
  agent.set_position(*next);
}

void NodeRuntime::restore_at_savepoint(Agent& agent, SavepointId target) {
  auto strong = agent.log().strong_state_at(target);
  MAR_CHECK_MSG(strong.is_ok(), "cannot reconstruct strong state: "
                                    << strong.status());
  const auto sp = agent.log().find_savepoint(target);
  MAR_CHECK(sp.has_value());
  agent.data().restore_strong(strong.value());
  agent.data().set_mode(DataSpace::Mode::normal);
  agent.set_position(sp->resume_position);
  agent.set_run_state(Agent::RunState::running);
  // Savepoints established after the target died with the rollback.
  auto& stack = agent.savepoint_stack();
  std::erase_if(stack, [target](const SavepointStackEntry& e) {
    return e.id.value() > target.value();
  });
  agent.set_last_savepoint_strong(strong.value());
  agent.set_force_full_savepoint(false);
  agent.note_rollback_completed();
  record_event(EventKind::restore, agent.id(), target.value());
}

}  // namespace mar::agent
