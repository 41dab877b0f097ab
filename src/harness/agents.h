// Reusable test agent exercising every compensation-entry type.
#pragma once

#include <memory>
#include <string>

#include "agent/agent.h"
#include "agent/platform.h"
#include "agent/step_context.h"

namespace mar::harness {

/// A configurable agent whose steps cover the paper's scenarios:
///
///   collect    directory lookup -> strongly reversible "results" list
///              (no compensating operations at all)
///   noop       only bumps the visit counter
///   work       charges `work_ops` (default 1) service-time units without
///              touching any resource: lock-free, contention-free load
///   bank_hot   deposits 1 into the bank account named by the next entry
///              of the "hot_accounts" config list (round-robin by visit;
///              optional "hot_amounts" list overrides the amount) and logs
///              the matching withdraw as RCE — the A6 contention workload:
///              two agents conflict only when their draws collide on the
///              same account
///   spend_logged  weak "cash" -= 1 plus one ACE padded to `param_bytes`;
///              no resource access — the A5 steady-state durability load
///   spend_cash weak "cash" -= 25, agent compensation entry only
///   withdraw   bank withdraw 100 -> cash; RCE (deposit back) + ACEs
///   deposit    bank deposit 50 from cash; RCE (withdraw back, may fail!)
///   fund       mint issues 5x20 USD coins into weak "wallet" (MCE undo)
///   exchange   wallet USD -> EUR at the local exchange (MCE undo — the
///              paper's Sec. 4.4.1 mixed-compensation example)
///   buy        shop purchase paid from cash (MCE cancel w/ fee policy)
///   savepoint  establishes an ad-hoc savepoint, id stored in weak
///              "last_sp"
///   poison     marks the step non-compensatable (Sec. 3.2)
///
/// Every step first increments weak "visits". A rollback trigger can be
/// configured in the weak "trigger" map: {step, at, mode, levels|sp}:
/// when executing step `step` with visits == `at`, it requests a rollback
/// (mode "sub": current/enclosing sub-itinerary; "abandon": roll back AND
/// skip the sub-itinerary; "fail": declare the step permanently failed —
/// the platform abandons the innermost non-vital sub or fails the agent;
/// "last_sp": the ad-hoc savepoint stored in "last_sp"; "explicit":
/// savepoint id `sp`).
class WorkloadAgent final : public agent::Agent {
 public:
  WorkloadAgent();

  [[nodiscard]] std::string type_name() const override { return "workload"; }
  void run_step(const std::string& step, agent::StepContext& ctx) override;

  // Convenience accessors for assertions.
  [[nodiscard]] std::int64_t visits() const {
    return data().weak("visits").as_int();
  }
  [[nodiscard]] std::int64_t cash() const {
    return data().weak("cash").as_int();
  }
  [[nodiscard]] const serial::Value& results() const {
    return data().strong("results");
  }
  [[nodiscard]] const serial::Value& wallet() const {
    return data().weak("wallet");
  }

  /// Configure the rollback trigger (see class comment).
  void set_trigger(const std::string& step, std::int64_t at_visit,
                   const std::string& mode, std::int64_t arg = 0);

  /// Extra integer knobs read by the parameterized bench steps
  /// ("param_bytes" for touch_* undo payloads, "strong_bytes" for
  /// grow_strong). Call after set_trigger (shares the same config map).
  void set_config(const std::string& key, std::int64_t value) {
    data().weak("trigger").set(key, value);
  }
  /// Structured config (lists, maps) for the parameterized bench steps,
  /// e.g. the "hot_accounts" draw sequence of bank_hot.
  void set_config_value(const std::string& key, serial::Value value) {
    data().weak("trigger").set(key, std::move(value));
  }

 private:
  void maybe_trigger(const std::string& step, agent::StepContext& ctx);
};

/// Register the workload agent type and all its compensating operations
/// with a platform. Safe to call once per Platform instance.
void register_workload(agent::Platform& platform);

}  // namespace mar::harness
