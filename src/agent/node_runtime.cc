#include "agent/node_runtime.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <utility>

#include "contract/contract.h"
#include "resource/lock_audit.h"
#include "serial/decoder.h"
#include "util/check.h"

namespace mar::agent {

using rollback::OpEntryKind;
using rollback::OperationEntry;
using storage::QueueRecord;
using storage::RecordKind;

NodeRuntime::NodeRuntime(Platform& platform, NodeId id)
    : p_(platform), id_(id),
      storage_(storage::SegmentLogConfig{platform.config().segment_bytes}),
      qm_(storage_), rm_(storage_),
      txm_(id, platform.sim(), platform.net(), storage_, &platform.spans()),
      ship_(platform, id, txm_, qm_, storage_),
      sched_(platform.config(), storage_, qm_, platform.rng()) {
  txm_.register_participant(qm_);
  txm_.register_participant(rm_);
  txm_.set_apply_listener([this] { pump(); });
  // The remote-call endpoints (tx.* and ship.* belong to txm_ and ship_):
  // the requests this node serves, and every reply into the waiter table.
  using enum net::MsgType;
  for (const auto request : {rce_exec, mce_exec}) {
    p_.net().on(id_, request,
                std::bind_front(&NodeRuntime::serve_compensation, this));
  }
  p_.net().on(id_, ctr_invoke,
              std::bind_front(&NodeRuntime::serve_invoke, this));
  for (const auto reply : {rce_ack, mce_ack, ctr_result}) {
    p_.net().on(id_, reply, std::bind_front(&NodeRuntime::complete_call, this));
  }
  if (platform.config().lock_audit) rm_.enable_lock_audit();
  txm_.set_group_commit(platform.config().group_commit_window,
                        platform.config().group_commit_flush_us);
  txm_.set_checkpoint(platform.config().checkpoint_interval_bytes);
  qm_.set_clock([this] { return p_.sim().now(); });
  // Delta migrations hand the receiver's reconstructed agent to the first
  // execution of its staged record; a staging that aborts drops it.
  ship_.set_handoff_listener(
      [this](const QueueRecord& rec, std::unique_ptr<Agent> agent) {
        sched_.keep_resident(rec.record_id, std::move(agent));
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
  if (const auto stash = sched_.take_hop(rec.record_id); stash.span_id != 0) {
    // Re-claim after an abort: resume the stashed hop span and close
    // the lock-wait (backoff + re-admission) window the abort opened.
    rec.hop_span_id = stash.span_id;
    rec.hop_begin_us = stash.begin_us;
    if (stash.lock_wait_since != 0) {
      span_phase(rec, SpanKind::lock_wait, stash.lock_wait_since);
    }
    return;
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
  span_phase(rec, SpanKind::queue_wait, rec.hop_begin_us);
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
  if (!p_.spans().enabled()) return;
  span_phase(rec, SpanKind::commit_flush, begin_us);
  hist_commit_flush_us_->record(p_.sim().now() - begin_us);
}

void NodeRuntime::span_phase(const QueueRecord& rec, SpanKind kind,
                             std::uint64_t begin_us) {
  if (!p_.spans().enabled()) return;
  Span phase;
  phase.trace_id = rec.trace_id;
  phase.span_id = p_.spans().next_id();
  phase.parent = rec.hop_span_id;
  phase.kind = kind;
  phase.node = id_.value();
  phase.agent = rec.agent.value();
  phase.begin_us = begin_us;
  phase.end_us = p_.sim().now();
  p_.spans().record(std::move(phase));
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
  // Taken, not copied: the step mutates it, so an abort or a retry must
  // re-read the durable state.
  auto agent = sched_.take_resident(rec.record_id);
  if (agent == nullptr) return load_committed_agent(rec);
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

void NodeRuntime::enqueue_initial(QueueRecord record) {
  record.enqueued_us = p_.sim().now();
  storage_.enqueue(std::move(record), /*transfer=*/false);
  pump();
}

void NodeRuntime::pump() {
  if (!up_) return;
  while (const QueueRecord* next = sched_.claim()) {
    after(0, [this, record_id = next->record_id] {
      process_record(record_id);
    });
  }
}

void NodeRuntime::commit_exit(const QueueRecord& rec) {
  span_hop_end(rec);
  sched_.commit_exit(rec.record_id);
  pump();
}

bool NodeRuntime::abort_exit(const QueueRecord& rec,
                             Scheduler::Attempt attempt) {
  const auto backoff = sched_.abort_exit(rec, attempt, p_.sim().now());
  if (!backoff.has_value()) return false;
  after(*backoff, [this] { pump(); });
  return true;
}

void NodeRuntime::process_record(std::uint64_t record_id) {
  if (!up_ || !sched_.holds(record_id)) return;
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

void NodeRuntime::on_node_state(bool up) {
  // The epoch bump cancels every pending continuation; the scheduler's
  // wipe invalidates all in-flight executions at once. Their records are
  // still queued (removal only commits), so recovery re-offers them, each
  // opening a fresh hop span and decoding from the durable state.
  ++epoch_;
  up_ = up;
  record_event(up ? EventKind::recover : EventKind::crash, AgentId());
  if (!up) flight_dump("crash");  // post-mortem before volatile state goes
  sched_.crash();
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
                           std::span<const NodeId> dests,
                           std::shared_ptr<const Agent> agent,
                           MigrateCause cause) {
  // Rotate through the candidates on repeated failures (fault-tolerant
  // execution, ref [11]; Sec. 4.3's alternative compensation nodes).
  const NodeId dest = dests[sched_.attempts(rec.record_id) % dests.size()];
  propagate_trace(rec, next);
  if (dest != id_) {
    if (next.kind == RecordKind::compensate) ++p_.rollback_transfers();
    record_event(EventKind::migrate, rec.agent, dest.value(),
                 next.payload.size(), as_code(cause));
  }
  stage_and_commit(
      tx, dest, std::move(next), std::move(agent), [this, rec](bool committed) {
        const bool comp = rec.kind == RecordKind::compensate;
        if (committed) {
          if (comp) record_event(EventKind::comp_commit, rec.agent);
          commit_exit(rec);
          return;
        }
        if (comp) {
          record_event(EventKind::comp_abort, rec.agent, 0, 0,
                       as_code(Errc::tx_aborted));
        }
        abort_exit(rec, Scheduler::Attempt::counted);
      });
}

void NodeRuntime::fail_agent(const QueueRecord& rec, Status status) {
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
          abort_exit(rec, Scheduler::Attempt::uncounted);
          return;
        }
        txm_.commit_async(tx, [this, rec, state, status, commit_begin,
                               final_bytes = std::move(final_bytes)](
                                  bool committed) mutable {
          if (!committed) {
            abort_exit(rec, Scheduler::Attempt::uncounted);
            return;
          }
          if (state == AgentOutcome::State::done) {
            record_event(EventKind::step_commit, rec.agent, rec.record_id, 0,
                         1);
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
          commit_exit(rec);
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
  call_remote(tx, agent.result_node(), net::MsgType::ctr_invoke,
              contract::encode_invoke(tx, "mailbox", "put", params, ""),
              /*transfer_slack=*/0,
              [done = std::move(done)](serial::Decoder* reply) {
                done(reply != nullptr &&
                     static_cast<Errc>(reply->read_u8()) == Errc::ok);
              });
}

void NodeRuntime::call_remote(TxId tx, NodeId dest, net::MsgType type,
                              serial::Bytes request,
                              sim::TimeUs transfer_slack, Reply on_reply) {
  txm_.enlist_remote(tx, dest);
  const auto timeout =
      p_.config().stage_timeout_us +
      transfer_slack * p_.net().transfer_time(id_, dest, request.size());
  p_.net().send(net::Message{id_, dest, type, std::move(request)});
  const auto [it, fresh] =
      waiters_.try_emplace(tx, Waiter{net::reply_of(type).value(),
                                      std::move(on_reply), {}});
  MAR_CHECK_MSG(fresh, "a transaction waits for one remote call at a time");
  if (p_.config().stage_timeout_us > 0) {
    it->second.timeout = p_.sim().schedule_after(timeout, [this, tx] {
      // Armed only while the call waits: its reply or a crash cancels it.
      waiters_.extract(tx).mapped().on_reply(nullptr);
    });
  }
}

void NodeRuntime::complete_call(const net::Message& m) {
  // Every reply starts with the tx of its call.
  serial::Decoder dec(m.payload);
  const auto it = waiters_.find(TxId(dec.read_u64()));
  if (it == waiters_.end() || m.type != it->second.reply) {
    return;  // timed out, duplicate, or not the awaited kind
  }
  auto waiter = waiters_.extract(it);
  p_.sim().cancel(waiter.mapped().timeout);
  waiter.mapped().on_reply(&dec);
}

void NodeRuntime::serve_invoke(const net::Message& m) {
  // Remote resource access by RPC: used by the ConTract-style central
  // baseline and available as the Sec. 4.4.1 "further optimization".
  auto req = contract::decode_invoke(m);
  const TxId tx = req.tx;
  serve_remote(m, tx, p_.config().resource_op_service_us,
               [this, req = std::move(req)] {
                 Status st;
                 if (req.comp_op.empty()) {
                   st = rm_.invoke(req.tx, req.resource, req.op, req.params)
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
  const StepEntry& step = current_step(*agent);
  record_event(EventKind::step_begin, rec.agent, rec.record_id);

  StepContext ctx(id_, p_.sim().now(), tx, *agent, rm_, p_.rng());
  if (step.when != nullptr &&
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
    abort_exit(rec, Scheduler::Attempt::counted);
    return;
  }

  if (ctx.failed_permanently() || ctx.rollback_request().has_value()) {
    // The step is abandoned (Fig. 4a/5a): abort the step transaction; the
    // agent state and log read from stable storage (the queue record) are
    // the pre-step state. A permanent failure tries the next option of the
    // innermost enclosing alternatives entry (ref [14]), else abandons the
    // innermost non-vital sub-itinerary (Sec. 5), else fails the agent.
    std::shared_ptr<Agent> pre_agent = load_committed_agent(rec);
    const auto plan = rollback_plan(*pre_agent, ctx);
    txm_.abort_tx(tx);
    record_event(EventKind::step_abort, rec.agent, rec.record_id, 0,
                 as_code(ctx.failed_permanently()
                             ? ctx.permanent_status().code()
                             : Errc::ok));
    if (!plan.is_ok()) {
      fail_agent(rec, plan.status());
      return;
    }
    begin_rollback(rec, std::move(pre_agent), plan.value().target,
                   plan.value().completion);
    return;
  }

  complete_step(tx, rec, std::move(agent), ctx);
}

void NodeRuntime::complete_step(TxId tx, const QueueRecord& rec,
                                std::shared_ptr<Agent> agent,
                                StepContext& ctx) {
  const StepEntry& step = current_step(*agent);
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
    // The step body plus its modeled service time — the hop's step-exec
    // phase (the commit phase starts right here).
    span_phase(rec, SpanKind::step_exec, exec_begin);
    if (agent->run_state() == Agent::RunState::done) {
      terminate(tx, rec, *agent, AgentOutcome::State::done, Status::ok());
      return;
    }
    // Route to the next step's node; rotate through the alternatives on
    // repeated failures (fault-tolerant execution, ref [11]).
    const NodeList& next_nodes = current_step(*agent).locations;
    const NodeId dest =
        next_nodes[sched_.attempts(rec.record_id) % next_nodes.size()];
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
                       if (!committed) {
                         record_event(EventKind::step_abort, rec.agent,
                                      rec.record_id, 0,
                                      as_code(Errc::tx_aborted));
                         // The spawns died with the transaction; the step
                         // will re-execute and re-spawn under fresh ids.
                         for (const auto child : spawned) {
                           p_.forget_agent(child);
                         }
                         abort_exit(rec, Scheduler::Attempt::counted);
                         return;
                       }
                       record_event(EventKind::step_commit, rec.agent,
                                    rec.record_id);
                       // Commit wait: group-commit flush for local
                       // handoffs, flush + convoy round trip for
                       // migrations (its convoy-wait / wire children land
                       // from the shipment manager).
                       span_commit_flush(rec, commit_begin);
                       if (p_.spans().enabled()) {
                         hist_step_us_->record(p_.sim().now() - exec_begin);
                       }
                       if (incremental) {
                         // Keep the committed state resident: the next
                         // local step skips the full decode entirely.
                         sched_.keep_resident(next_record, agent);
                       }
                       commit_exit(rec);
                     });
  });
}

}  // namespace mar::agent
