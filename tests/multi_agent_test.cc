// Multi-agent executions — the paper's Sec. 6 future work: "an enhanced
// agent execution model supporting exactly-once executions comprising
// more than one agent".
//
// Mechanisms under test:
//   * spawn_child(): the child's launch commits atomically with the
//     spawning step (exactly-once spawn, even under crashes);
//   * result delivery: the child's result lands in a mailbox within its
//     final step transaction (exactly-once delivery); join_child() parks
//     the parent's step until it arrives;
//   * cascading rollback: compensating a spawning step cancels the child
//     — a running child performs a complete rollback of its own
//     committed steps and terminates `cancelled`; a finished child is
//     re-injected as a compensating execution; a child whose log was
//     discarded can no longer be compensated (Sec. 3.2 failing
//     compensation).
#include <gtest/gtest.h>

#include <typeinfo>
#include <utility>

#include "harness/agents.h"
#include "harness/world.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using agent::StepContext;
using harness::TestWorld;
using harness::WorkloadAgent;
using harness::register_workload;

serial::Value kv(
    std::initializer_list<std::pair<std::string, serial::Value>> pairs) {
  serial::Value v = serial::Value::empty_map();
  for (auto& [k, val] : pairs) v.set(k, val);
  return v;
}

/// Child: touches the directory on each visited node (publishing
/// "probe-<n>") and returns the number of touches as its result.
class ProbeAgent final : public agent::Agent {
 public:
  ProbeAgent() {
    data().declare_strong("notes", serial::Value::empty_list());
    data().declare_weak("result", std::int64_t{0});
  }
  std::string type_name() const override { return "probe"; }
  void run_step(const std::string& step, StepContext& ctx) override {
    if (step != "probe") return;
    auto& count = data().weak("result");
    const std::string key =
        "probe-" + std::to_string(id().value()) + "-" +
        std::to_string(count.as_int());
    auto r = ctx.invoke("dir", "publish", kv({{"key", key}, {"value", 1}}));
    if (!r.is_ok()) return;  // lock conflict: the platform restarts us
    count = count.as_int() + 1;
    ctx.log_resource_compensation("dir", "comp.remove_entry",
                                  kv({{"key", key}}));
    ctx.log_agent_compensation(
        "comp.counter_sub",
        kv({{"slot", serial::Value("result")}, {"amount", 1}}));
  }
};

/// Parent: spawns `fanout` probe children in one step, joins their
/// results in later steps, and optionally rolls the spawning step back.
class MasterAgent final : public agent::Agent {
 public:
  MasterAgent() {
    data().declare_strong("gathered", serial::Value::empty_list());
    data().declare_weak("sum", std::int64_t{0});
    data().declare_weak("cfg", serial::Value::empty_map());
  }
  std::string type_name() const override { return "master"; }

  void configure(std::int64_t fanout, std::int64_t probe_nodes,
                 bool rollback_after_join) {
    auto& cfg = data().weak("cfg");
    cfg.set("fanout", fanout);
    cfg.set("probe_nodes", probe_nodes);
    cfg.set("rollback", rollback_after_join);
  }

  void run_step(const std::string& step, StepContext& ctx) override {
    const auto& cfg = data().weak("cfg");
    if (step == "spawn") {
      for (std::int64_t i = 0; i < cfg.at("fanout").as_int(); ++i) {
        auto child = std::make_unique<ProbeAgent>();
        Itinerary probes;
        for (std::int64_t n = 0; n < cfg.at("probe_nodes").as_int(); ++n) {
          probes.step("probe", TestWorld::n(2 + static_cast<int>(
                                                    (i + n) % 3)));
        }
        Itinerary main;
        main.sub(std::move(probes));
        child->itinerary() = std::move(main);
        ctx.spawn_child(std::move(child), ctx.node(),
                        "probe-result-" + std::to_string(i));
      }
      return;
    }
    if (step == "join") {
      // Join every child; any not-yet-delivered result parks the step.
      for (std::int64_t i = 0; i < cfg.at("fanout").as_int(); ++i) {
        auto r = ctx.join_child("probe-result-" + std::to_string(i));
        if (!r.is_ok()) return;  // retry_step already requested
        const auto& record = r.value().at("value");
        if (record.at("ok").as_bool()) {
          data().weak("sum") =
              data().weak("sum").as_int() + record.at("result").as_int();
        }
      }
      return;
    }
    if (step == "decide") {
      if (cfg.at("rollback").as_bool() && rollbacks_completed() == 0) {
        ctx.request_rollback_sub_itinerary();
      }
    }
  }
};

void register_agents(agent::Platform& platform) {
  register_workload(platform);  // comp.remove_entry, comp.counter_sub, ...
  platform.agent_types().register_type<ProbeAgent>("probe");
  platform.agent_types().register_type<MasterAgent>("master");
}

std::unique_ptr<MasterAgent> master(int fanout, int probe_nodes,
                                    bool rollback) {
  auto agent = std::make_unique<MasterAgent>();
  agent->configure(fanout, probe_nodes, rollback);
  Itinerary sub;
  sub.step("spawn", TestWorld::n(1));
  sub.step("join", TestWorld::n(1));
  sub.step("decide", TestWorld::n(1));
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  return agent;
}

int probe_keys(TestWorld& w, int nodes) {
  int found = 0;
  for (int n = 1; n <= nodes; ++n) {
    for (const auto& [key, value] :
         w.committed(n, "dir").at("entries").as_map()) {
      if (key.rfind("probe-", 0) == 0) ++found;
    }
  }
  return found;
}

TEST(CloneAgentTest, EveryRegisteredTypeClonesIntoAnIndependentCopy) {
  TestWorld w(PlatformConfig{}, 3);
  register_agents(w.platform);
  auto& types = w.platform.agent_types();
  std::vector<std::unique_ptr<agent::Agent>> sources;
  sources.push_back(std::make_unique<WorkloadAgent>());
  sources.push_back(std::make_unique<ProbeAgent>());
  sources.push_back(master(2, 2, false));
  for (auto& src : sources) {
    if (std::as_const(*src).itinerary().empty()) {
      Itinerary sub;
      sub.step("probe", TestWorld::n(2));
      Itinerary main;
      main.sub(std::move(sub));
      src->itinerary() = std::move(main);
    }
    src->set_id(AgentId(7));
    src->data().declare_weak("tag", serial::Value(src->type_name()));
    src->log().push(rollback::BeginOfStepEntry{TestWorld::n(2), "probe"});
    const auto agent = agent::decode_agent(types, agent::encode_agent(*src));
    const auto before = agent::encode_agent(*agent);
    const auto clone = agent::clone_agent(types, *agent);
    EXPECT_EQ(typeid(*clone), typeid(*src)) << src->type_name();
    EXPECT_EQ(agent::encode_agent(*clone), before) << src->type_name();
    clone->data().weak("tag") = serial::Value("changed");
    clone->data().declare_strong("fresh", serial::Value::empty_list());
    clone->log().push(rollback::BeginOfStepEntry{TestWorld::n(3), "probe"});
    EXPECT_EQ(agent::encode_agent(*agent), before) << src->type_name();
  }
}

TEST(MultiAgentTest, SpawnJoinCollectsEveryChildResult) {
  TestWorld w(PlatformConfig{}, 5);
  register_agents(w.platform);
  auto id = w.platform.launch(master(3, 2, false));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  // 3 children × 2 probes each.
  EXPECT_EQ(fin->data().weak("sum").as_int(), 6);
  EXPECT_EQ(probe_keys(w, 5), 6);
  EXPECT_EQ(w.platform.children_of(id.value()).size(), 3u);
  // Every child finished.
  for (const auto child : w.platform.children_of(id.value())) {
    EXPECT_EQ(w.platform.outcome(child).state, AgentOutcome::State::done);
  }
}

TEST(MultiAgentTest, SpawnIsExactlyOnceUnderCrashStorm) {
  TestWorld w(PlatformConfig{}, 5, 23);
  register_agents(w.platform);
  Rng frng(0x5eed);
  net::FaultInjector::CrashPlan plan;
  plan.mean_time_between_crashes_us = 600'000;
  plan.mean_downtime_us = 100'000;
  plan.horizon_us = 60'000'000;
  w.faults.random_crashes(w.net.node_ids(), frng, plan);

  auto id = w.platform.launch(master(3, 2, false));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  // Exactly-once spawn + exactly-once probes + exactly-once delivery:
  // the counts must be exact despite the crash storm.
  EXPECT_EQ(fin->data().weak("sum").as_int(), 6);
  EXPECT_EQ(probe_keys(w, 5), 6);
}

TEST(MultiAgentTest, ParentRollbackCompensatesFinishedChildren) {
  // The parent joins all results, then rolls back its spawning step. The
  // children are already done, so the spawn compensation re-injects them
  // as compensating executions: every probe key disappears again.
  TestWorld w(PlatformConfig{}, 5);
  register_agents(w.platform);
  auto id = w.platform.launch(master(2, 2, true));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  // Drive the children's compensating executions to completion too.
  w.sim.run();
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  EXPECT_EQ(probe_keys(w, 5), 4);  // re-run after rollback re-probes
  int cancelled = 0;
  for (const auto child : w.platform.children_of(id.value())) {
    if (w.platform.outcome(child).state == AgentOutcome::State::cancelled) {
      ++cancelled;
    }
  }
  // The first generation (2 children) was compensated; the re-run spawned
  // a second generation that completed normally.
  EXPECT_EQ(cancelled, 2);
  EXPECT_EQ(w.platform.children_of(id.value()).size(), 4u);
}

TEST(MultiAgentTest, CancelRequestRollsBackARunningAgent) {
  // Directly exercise the cancellation machinery: let a workload agent
  // commit a few compensable steps, then request cancellation.
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary sub;
  sub.step("touch_split", TestWorld::n(1))
      .step("touch_split", TestWorld::n(2))
      .step("touch_split", TestWorld::n(3))
      .step("noop", TestWorld::n(4));
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  // Cancel while the agent is mid-itinerary (the pipelined commit path
  // finishes the course faster, so the request lands well before the
  // final step rather than near the old 8 ms mark).
  w.sim.schedule_at(5'000, [&] { w.platform.request_cancel(id.value()); });
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  EXPECT_EQ(w.platform.outcome(id.value()).state,
            AgentOutcome::State::cancelled);
  // One rollback: it begins once and completes once.
  EXPECT_EQ(w.platform.spans().count(EventKind::rollback_begin), 1u);
  EXPECT_EQ(w.platform.spans().count(EventKind::rollback_done), 1u);
  // Everything it committed was compensated, and no node keeps a
  // resident agent for a record that is gone.
  w.sim.run();
  for (int n = 1; n <= 4; ++n) {
    for (const auto& [key, value] :
         w.committed(n, "dir").at("entries").as_map()) {
      EXPECT_TRUE(key.rfind("touch-", 0) != 0) << key;
    }
    EXPECT_EQ(
        w.platform.node(TestWorld::n(n)).scheduler().resident_agents(), 0u);
  }
}

TEST(MultiAgentTest, CancelIsVoidAfterLogDiscard) {
  // Sec. 4.4.2: "an abort of the agent by performing a complete rollback
  // is possible only during the execution of the first sub-itinerary of
  // the main itinerary". After the first top-level sub completes (log
  // discard), a cancellation request is void and the agent completes.
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary first;
  first.step("touch_split", TestWorld::n(1));
  Itinerary second;
  second.step("touch_split", TestWorld::n(2))
      .step("touch_split", TestWorld::n(3));
  Itinerary main;
  main.sub(std::move(first));
  main.sub(std::move(second));
  agent->itinerary() = std::move(main);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  // Request the cancel after the first top-level sub committed (its
  // completion discards the log).
  w.sim.schedule_at(8'000, [&] { w.platform.request_cancel(id.value()); });
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  EXPECT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(fin->data().weak("touches").as_int(), 3);
}

TEST(MultiAgentTest, ChildFailureDeliversErrorToTheMailbox) {
  // A child that fails permanently still unblocks the parent's join: the
  // failure record is delivered within its cleanup transaction.
  TestWorld w(PlatformConfig{}, 5);
  register_agents(w.platform);

  class FailingChildMaster final : public agent::Agent {
   public:
    FailingChildMaster() {
      data().declare_strong("notes", serial::Value::empty_list());
      data().declare_weak("child_ok", true);
      data().declare_weak("child_error", std::string{});
    }
    std::string type_name() const override { return "failmaster"; }
    void run_step(const std::string& step, StepContext& ctx) override {
      if (step == "spawn") {
        auto child = std::make_unique<WorkloadAgent>();
        Itinerary sub;
        // All-vital itinerary whose step fails permanently.
        sub.step("noop", TestWorld::n(3));
        sub.step("noop", TestWorld::n(4));
        Itinerary main;
        main.sub(std::move(sub));
        child->itinerary() = std::move(main);
        child->set_trigger("noop", 1, "fail", 0);
        ctx.spawn_child(std::move(child), ctx.node(), "failing-child");
        return;
      }
      if (step == "join") {
        auto r = ctx.join_child("failing-child");
        if (!r.is_ok()) return;
        const auto& record = r.value().at("value");
        data().weak("child_ok") = record.at("ok").as_bool();
        data().weak("child_error") = record.at("error");
      }
    }
  };
  w.platform.agent_types().register_type<FailingChildMaster>("failmaster");

  auto agent = std::make_unique<FailingChildMaster>();
  Itinerary sub;
  sub.step("spawn", TestWorld::n(1)).step("join", TestWorld::n(1));
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  w.sim.run();  // drain the child's terminal bookkeeping
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_FALSE(fin->data().weak("child_ok").as_bool());
  EXPECT_NE(fin->data().weak("child_error").as_string().find("forbidden"),
            std::string::npos);
  // The child itself is recorded as failed.
  const auto kids = w.platform.children_of(id.value());
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(w.platform.outcome(kids[0]).state, AgentOutcome::State::failed);
}

TEST(MultiAgentTest, RemoteResultDeliveryIsTransactional) {
  // The child's last step runs far from the mailbox node: delivery goes
  // through the transactional RPC path and must still be exactly-once
  // under a mailbox-node crash.
  TestWorld w(PlatformConfig{}, 5, 31);
  register_agents(w.platform);
  w.faults.crash_at(TestWorld::n(1), 15'000, 300'000);
  auto id = w.platform.launch(master(2, 3, false));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(fin->data().weak("sum").as_int(), 6);
}

TEST(MultiAgentTest, RemoteResultDeliveryLeavesNoTimerBehind) {
  // The crash-free run of the setup above: each delivery RPC's timeout
  // dies with its reply, so the world goes quiet within one link round
  // trip of its last delivery. The parent only spawns; a join would park
  // it in retry backoff, a continuation of its own.
  TestWorld w(PlatformConfig{}, 5, 31);
  register_agents(w.platform);
  auto parent = master(2, 3, false);
  Itinerary sub;
  sub.step("spawn", TestWorld::n(1));
  Itinerary main;
  main.sub(std::move(sub));
  parent->itinerary() = std::move(main);
  auto id = w.platform.launch(std::move(parent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto children = w.platform.children_of(id.value());
  ASSERT_EQ(children.size(), 2u);
  ASSERT_TRUE(w.platform.run_until_all_finished(children));
  const auto quiet_after = w.drain_after_last_delivery();
  for (const auto child : children) {
    EXPECT_EQ(w.platform.outcome(child).state, AgentOutcome::State::done);
  }
  // Both results landed in the parent node's mailbox.
  EXPECT_EQ(w.committed(1, "mailbox").at("slots").as_map().size(), 2u);
  EXPECT_LE(quiet_after, w.header_round_trip())
      << "drained " << quiet_after << " us after the last delivery";
}

}  // namespace
}  // namespace mar
