// NodeRuntime's rollback driver (Sec. 4.3 / 4.4, DESIGN.md §2): one start
// (begin_rollback), one advance toward the savepoint (advance_rollback)
// and one compensation executor (execute_compensation), plus the target
// resolution, routing and completion helpers they share.
#include <algorithm>
#include <memory>
#include <utility>

#include "agent/node_runtime.h"
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

// ---------------------------------------------------------------------------
// Start
// ---------------------------------------------------------------------------

void NodeRuntime::execute_cancel(const QueueRecord& rec) {
  p_.clear_cancel(rec.agent);
  std::shared_ptr<Agent> agent = load_committed_agent(rec);
  const auto target = agent->log().first_savepoint();
  if (target.valid()) {
    begin_rollback(rec, std::move(agent), target, Completion::cancel);
    return;
  }
  // Sec. 4.4.2: a complete rollback (abort) is only possible while the
  // first top-level sub-itinerary executes. The log was discarded: the
  // cancellation is void; the agent runs on to completion.
  if (rec.kind == RecordKind::execute) {
    execute_step(rec);
  } else {
    execute_launch(rec);
  }
}

void NodeRuntime::begin_rollback(const QueueRecord& rec,
                                 std::shared_ptr<Agent> agent,
                                 SavepointId target, Completion completion) {
  record_event(EventKind::rollback_begin, rec.agent, target.value(), 0,
               as_code(completion));
  // Fig. 4a / 5a: a new transaction; the agent and its LOG are the state
  // read from stable storage.
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  // A cancel consumes the record without running its step: drop the
  // record's resident agent, if the step did not take it.
  sched_.take_resident(rec.record_id);
  advance_rollback(tx, rec, std::move(agent), target, completion);
}

Result<NodeRuntime::RollbackPlan> NodeRuntime::rollback_plan(
    const Agent& agent, const StepContext& ctx) const {
  if (ctx.failed_permanently()) {
    // The step cannot succeed, ever (e.g. missing permission, Sec. 1).
    const auto plan = failure_plan_for(agent);
    if (!plan.has_value()) return ctx.permanent_status();
    MAR_RETURN_IF_ERROR(check_rollback_target(agent, plan->target));
    return *plan;
  }
  const RollbackRequest& request = *ctx.rollback_request();
  const SavepointId target =
      std::holds_alternative<SavepointId>(request.target)
          ? std::get<SavepointId>(request.target)
          : agent.sub_savepoint(std::get<std::uint32_t>(request.target));
  if (!target.valid()) {
    return Status(Errc::not_found, "no such rollback target");
  }
  MAR_RETURN_IF_ERROR(check_rollback_target(agent, target));
  return RollbackPlan{target, request.skip ? Completion::skip_sub
                                           : Completion::resume};
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

std::optional<NodeRuntime::RollbackPlan> NodeRuntime::failure_plan_for(
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
          if (sp.valid()) return RollbackPlan{sp, Completion::next_alt};
        }
        break;  // options exhausted: keep searching outward
      }
      case Itinerary::PrefixKind::sub: {
        if (!itinerary.entry_at(*p).vital()) {
          const auto sp = savepoint_at_depth(agent, depth);
          if (sp.valid()) return RollbackPlan{sp, Completion::skip_sub};
        }
        break;
      }
      default:
        break;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Advance
// ---------------------------------------------------------------------------

void NodeRuntime::advance_rollback(TxId tx, const QueueRecord& rec,
                                   std::shared_ptr<Agent> agent,
                                   SavepointId target, Completion completion) {
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
    // Target reached. A compensation restores the strongly reversible
    // objects from the savepoint entry (without deleting it); a rollback
    // whose savepoint was set directly before the abandoned step starts
    // there, so its committed state already is the savepoint's.
    if (rec.kind == RecordKind::compensate) {
      restore_at_savepoint(*agent, target);
    } else {
      agent->note_rollback_completed();
    }
    record_event(EventKind::rollback_done, rec.agent, target.value(), 0,
                 as_code(completion));
    if (completion == Completion::cancel) {
      // Multi-agent executions: a complete rollback that terminates the
      // agent instead of resuming it.
      terminate(tx, rec, *agent, AgentOutcome::State::cancelled,
                Status(Errc::tx_aborted, "cancelled"));
      return;
    }
    if (completion == Completion::skip_sub && !apply_skip(*agent, target)) {
      terminate(tx, rec, *agent, AgentOutcome::State::done, Status::ok());
      return;
    }
    if (completion == Completion::next_alt) {
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
  const auto dests =
      next_compensation_nodes(log, *agent, committed_agent_bytes(rec));
  if (dests.empty()) {
    txm_.abort_tx(tx);
    fail_agent(rec, Status(Errc::protocol_error,
                           "rollback log ends before the target savepoint"));
    return;
  }
  QueueRecord next = make_record(*agent, RecordKind::compensate, target);
  next.completion = completion;
  const auto cause = completion == Completion::cancel &&
                             rec.kind != RecordKind::compensate
                         ? MigrateCause::cancel
                         : MigrateCause::rollback;
  hand_off(tx, rec, std::move(next), dests, agent, cause);
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

// ---------------------------------------------------------------------------
// Compensation executor
// ---------------------------------------------------------------------------

Status NodeRuntime::run_comp_op(TxId tx, AgentId agent,
                                const OperationEntry& op,
                                serial::Value* weak) {
  rollback::CompensationContext ctx(op.kind, op.params, p_.sim().now(), &rm_,
                                    tx, weak);
  Status st = p_.compensations().run(op.comp_op, ctx);
  record_event(EventKind::comp_op, agent, 0, 0, as_code(st.code()));
  return st;
}

void NodeRuntime::execute_compensation(const QueueRecord& rec) {
  const TxId tx = txm_.begin();
  qm_.stage_remove(tx, rec.record_id);
  std::shared_ptr<Agent> agent = decode(rec.payload);
  record_event(EventKind::comp_begin, rec.agent, rec.rollback_target.value());
  // Sec. 4.3: strongly reversible objects must not be accessed until the
  // savepoint is reached.
  agent->data().set_mode(DataSpace::Mode::compensating);
  auto& log = agent->log();

  // Fig. 4b/5b: the advance that wrote this record dropped the trailing
  // savepoints, so the log ends with the step to compensate.
  if (log.empty() || log.kind_at(log.size() - 1) != EntryKind::end_of_step) {
    txm_.abort_tx(tx);
    fail_agent(rec, Status(Errc::protocol_error,
                           "malformed rollback log (no EOS)"));
    return;
  }
  const rollback::EndOfStepEntry eos = log.pop().end_of_step();

  const auto strategy = p_.config().strategy;
  const bool remote = eos.node != id_;
  // Adaptive strategy (Sec. 4.4.1 "further optimizations"): the routing
  // decision kept the agent here because shipping the mixed step's
  // operation entries + weak-state snapshot is cheaper than transferring
  // the agent to the resource node. Mixed entries need both the resource
  // and the weak agent state, so the whole list runs there, in log order.
  const bool ship_all =
      strategy == RollbackStrategy::adaptive && eos.has_mixed && remote;
  // Optimized algorithm without mixed entries (Fig. 5b): the RCE list runs
  // on the resource node, concurrently with the local ACE list.
  const bool ship_rces =
      strategy != RollbackStrategy::basic && !eos.has_mixed && remote;
  if (!ship_all && (strategy == RollbackStrategy::basic || eos.has_mixed)) {
    // Everything runs here. Sec. 4.3's fault-tolerant extension allows the
    // EOS entry's alternative nodes.
    const bool allowed =
        !remote || strategy == RollbackStrategy::adaptive ||
        std::find(eos.alternatives.begin(), eos.alternatives.end(), id_) !=
            eos.alternatives.end();
    MAR_CHECK_MSG(allowed, "compensation transaction routed to the wrong node");
  }
  // Pop this step's operation entries: popping yields them in reverse
  // logging order, which is exactly the compensation execution order.
  std::vector<OperationEntry> shipped;
  std::vector<OperationEntry> local;
  for (;;) {
    MAR_CHECK_MSG(!log.empty(), "rollback log has no begin-of-step entry");
    auto entry = log.pop();
    if (entry.kind() == EntryKind::begin_of_step) break;
    MAR_CHECK(entry.kind() == EntryKind::operation);
    OperationEntry op = entry.operation();
    MAR_CHECK_MSG(!ship_rces || op.kind != OpEntryKind::mixed,
                  "mixed entry in a step whose EOS mixed-flag is false");
    const bool ship =
        ship_all || (ship_rces && op.kind != OpEntryKind::agent);
    (ship ? shipped : local).push_back(std::move(op));
  }

  // The join: each leg reports once; the first failure wins.
  struct Join {
    int pending = 0;
    Status status;
  };
  auto join = std::make_shared<Join>();
  join->pending = (shipped.empty() ? 0 : 1) + (ship_all ? 0 : 1);
  auto arrived = [this, tx, rec, agent, join](Status st) {
    if (!st.is_ok() && join->status.is_ok()) join->status = st;
    if (--join->pending > 0) return;
    if (join->status.is_ok()) {
      advance_rollback(tx, rec, agent, rec.rollback_target, rec.completion);
      return;
    }
    record_event(EventKind::comp_abort, rec.agent, 0, 0,
                 as_code(join->status.code()));
    txm_.abort_tx(tx);
    if (!abort_exit(rec, Scheduler::Attempt::bounded)) {
      // Sec. 3.2: some compensations cannot succeed (e.g. the withdrawn
      // deposit); surface the permanently failed rollback to the owner.
      fail_agent(rec, Status(Errc::compensation_failed,
                             "compensation permanently failed: " +
                                 join->status.to_string()));
    }
  };

  if (!shipped.empty()) {
    // The shipped leg runs inside this transaction on the resource node;
    // a mixed list's reply carries the updated weak state back.
    const serial::Value* weak =
        ship_all ? &agent->data().weak_image() : nullptr;
    if (ship_all) ++p_.mixed_ships();
    auto request = encode_comp_request(tx, shipped, weak);
    record_event(ship_all ? EventKind::mce_shipped : EventKind::rce_shipped,
                 rec.agent, eos.node.value(), request.size());
    call_remote(tx, eos.node,
                ship_all ? net::MsgType::mce_exec : net::MsgType::rce_exec,
                std::move(request), /*transfer_slack=*/4,
                [agent, arrived, ship_all](serial::Decoder* reply) {
                  if (reply == nullptr) {
                    arrived(Status(Errc::unreachable,
                                   "shipped compensation unacknowledged"));
                    return;
                  }
                  if (!reply->read_bool()) {
                    arrived(Status(Errc::compensation_failed,
                                   "shipped compensation failed"));
                    return;
                  }
                  if (ship_all) {
                    serial::Value weak;
                    weak.deserialize(*reply);
                    *agent->data().weak_slots() = std::move(weak);
                  }
                  arrived(Status::ok());
                });
  }
  if (ship_all) return;

  // The local leg runs here, overlapping the shipped one, for its modeled
  // service time.
  Status st = Status::ok();
  for (const auto& op : local) {
    st = run_comp_op(tx, rec.agent, op, agent->data().weak_slots());
    if (!st.is_ok()) break;
  }
  const auto service = static_cast<sim::TimeUs>(local.size()) *
                       p_.config().comp_op_service_us;
  after(service, [arrived, st] { arrived(st); });
}

void NodeRuntime::serve_compensation(const net::Message& m) {
  // Shipped compensation entries, run here (the resource node) inside the
  // coordinator's compensation transaction: resource entries of the
  // optimized algorithm, or (adaptive strategy, Sec. 4.4.1) a mixed step's
  // complete entry list plus a snapshot of the agent's weakly reversible
  // objects. The weak-state mutations travel back with the
  // acknowledgement; they become durable only when the coordinator
  // commits the transaction, so a lost reply or an abort discards them.
  serial::Decoder dec(m.payload);
  const TxId tx(dec.read_u64());
  std::vector<OperationEntry> ops(dec.read_count());
  for (auto& op : ops) op.deserialize(dec);
  const bool mixed = m.type == net::MsgType::mce_exec;
  serial::Value weak;
  if (mixed) weak.deserialize(dec);
  const auto service =
      static_cast<sim::TimeUs>(ops.size()) * p_.config().comp_op_service_us;
  serve_remote(m, tx, service,
               [this, tx, mixed, ops = std::move(ops),
                weak = std::move(weak)]() mutable {
                 Status st = Status::ok();
                 for (const auto& op : ops) {
                   st = run_comp_op(tx, AgentId(), op,
                                    mixed ? &weak : nullptr);
                   if (!st.is_ok()) break;
                 }
                 serial::Encoder enc(8 + 1 +
                                     (mixed ? weak.encoded_size() : 0));
                 enc.write_u64(tx.value());
                 enc.write_bool(st.is_ok());
                 if (mixed) weak.serialize(enc);
                 return std::move(enc).take();
               });
}

// ---------------------------------------------------------------------------
// Completion at the savepoint
// ---------------------------------------------------------------------------

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
