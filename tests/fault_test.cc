// Fault-injection tests: the exactly-once and eventual-rollback guarantees
// under transient node crashes (the paper's fault model, Sec. 4.3).
#include <gtest/gtest.h>

#include "harness/agents.h"
#include "harness/world.h"

namespace mar {
namespace {

using agent::Itinerary;
using agent::PlatformConfig;
using agent::RollbackStrategy;
using harness::TestWorld;
using harness::WorkloadAgent;
using harness::register_workload;

Itinerary single_sub(std::vector<std::pair<std::string, int>> steps) {
  Itinerary sub;
  for (auto& [method, node] : steps) sub.step(method, TestWorld::n(node));
  Itinerary main;
  main.sub(std::move(sub));
  return main;
}

WorkloadAgent* as_workload(agent::Agent* a) {
  auto* wl = dynamic_cast<WorkloadAgent*>(a);
  EXPECT_NE(wl, nullptr);
  return wl;
}

TEST(FaultTest, StepSurvivesExecutingNodeCrash) {
  TestWorld w;
  register_workload(w.platform);
  w.open_account(2, "acct", 500);

  auto agent = std::make_unique<WorkloadAgent>();
  agent->itinerary() = single_sub({{"noop", 1}, {"withdraw", 2}, {"noop", 3}});
  // Crash N2 around the time the agent arrives, recover shortly after.
  w.faults.crash_at(TestWorld::n(2), 2'000, 300'000);

  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  // Exactly-once: despite crash and restart, one withdraw committed.
  EXPECT_EQ(resource::Bank::balance_in(w.committed(2, "bank"), "acct"), 400);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(as_workload(fin.get())->cash(), 100);
}

TEST(FaultTest, RepeatedCrashesDoNotDuplicateEffects) {
  TestWorld w;
  register_workload(w.platform);
  for (int n = 1; n <= 4; ++n) w.open_account(n, "acct", 1000);

  auto agent = std::make_unique<WorkloadAgent>();
  agent->itinerary() = single_sub(
      {{"withdraw", 1}, {"withdraw", 2}, {"withdraw", 3}, {"withdraw", 4}});
  // A rolling series of crashes across all nodes while the agent runs.
  for (int n = 1; n <= 4; ++n) {
    w.faults.crash_at(TestWorld::n(n),
                      1'000 + static_cast<sim::TimeUs>(n) * 40'000, 150'000);
    w.faults.crash_at(TestWorld::n(n),
                      900'000 + static_cast<sim::TimeUs>(n) * 70'000,
                      120'000);
  }
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(resource::Bank::balance_in(w.committed(n, "bank"), "acct"), 900)
        << "node " << n;
  }
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(as_workload(fin.get())->cash(), 400);
}

TEST(FaultTest, RollbackCompletesDespiteCrashOfCompensationNode) {
  for (auto strategy :
       {RollbackStrategy::basic, RollbackStrategy::optimized}) {
    PlatformConfig cfg;
    cfg.strategy = strategy;
    TestWorld w(cfg);
    register_workload(w.platform);
    w.open_account(1, "acct", 1000);
    w.open_account(2, "acct", 1000);

    auto agent = std::make_unique<WorkloadAgent>();
    agent->itinerary() =
        single_sub({{"withdraw", 1}, {"withdraw", 2}, {"noop", 3}});
    agent->set_trigger("noop", 3, "sub", 0);
    auto id = w.platform.launch(std::move(agent));
    ASSERT_TRUE(id.is_ok());

    // Crash the compensation nodes while the rollback is under way.
    w.faults.crash_at(TestWorld::n(2), 8'000, 400'000);
    w.faults.crash_at(TestWorld::n(1), 20'000, 600'000);

    ASSERT_TRUE(w.platform.run_until_finished(id.value()));
    ASSERT_EQ(w.platform.outcome(id.value()).state,
              agent::AgentOutcome::State::done)
        << "strategy=" << static_cast<int>(strategy)
        << " status=" << w.platform.outcome(id.value()).status;
    // Net effect after rollback + re-run: exactly one withdraw per node.
    EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"),
              900);
    EXPECT_EQ(resource::Bank::balance_in(w.committed(2, "bank"), "acct"),
              900);
    EXPECT_EQ(w.platform.spans().count(EventKind::restore), 1u);
  }
}

TEST(FaultTest, AgentRunsUnderRandomTransientCrashes) {
  // Property-style soak: random crash/recover processes on every node must
  // never violate exactly-once effects or block the agent forever.
  for (std::uint64_t seed : {11ull, 23ull, 57ull, 91ull}) {
    PlatformConfig cfg;
    cfg.strategy = RollbackStrategy::optimized;
    TestWorld w(cfg, /*node_count=*/5, seed);
    register_workload(w.platform);
    for (int n = 1; n <= 5; ++n) {
      w.open_account(n, "acct", 1000);
      w.publish(n, "info", serial::Value("n" + std::to_string(n)));
    }
    auto agent = std::make_unique<WorkloadAgent>();
    agent->itinerary() = single_sub({{"withdraw", 1},
                                     {"collect", 2},
                                     {"withdraw", 3},
                                     {"spend_cash", 4},
                                     {"noop", 5}});
    agent->set_trigger("noop", 5, "sub", 0);

    Rng rng(seed);
    net::FaultInjector::CrashPlan plan;
    plan.mean_time_between_crashes_us = 500'000;
    plan.mean_downtime_us = 100'000;
    plan.horizon_us = 20'000'000;
    w.faults.random_crashes(w.net.node_ids(), rng, plan);

    auto id = w.platform.launch(std::move(agent));
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(w.platform.run_until_finished(id.value())) << "seed " << seed;
    ASSERT_EQ(w.platform.outcome(id.value()).state,
              agent::AgentOutcome::State::done)
        << "seed " << seed
        << " status=" << w.platform.outcome(id.value()).status;
    // Rolled back once, re-ran once: exactly one net withdraw per bank.
    EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 900)
        << "seed " << seed;
    EXPECT_EQ(resource::Bank::balance_in(w.committed(3, "bank"), "acct"), 900)
        << "seed " << seed;
    auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
    auto* wl = as_workload(fin.get());
    // collect restored + refilled exactly once.
    EXPECT_EQ(wl->results().as_list().size(), 1u) << "seed " << seed;
    // cash: (+100 +100 -25) after one clean re-run.
    EXPECT_EQ(wl->cash(), 175) << "seed " << seed;
  }
}

TEST(FaultTest, LinkOutageOnlyDelaysExecution) {
  TestWorld w;
  register_workload(w.platform);
  w.publish(2, "info", serial::Value("x"));
  auto agent = std::make_unique<WorkloadAgent>();
  agent->itinerary() = single_sub({{"noop", 1}, {"collect", 2}});
  w.faults.link_down_at(TestWorld::n(1), TestWorld::n(2), 0, 2'000'000);

  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  // Completion must postdate the outage.
  EXPECT_GT(w.platform.outcome(id.value()).finished_at, 2'000'000u);
}

TEST(FaultTest, AlternativeNodeUsedWhenPrimaryStaysDown) {
  PlatformConfig cfg;
  cfg.stage_timeout_us = 300'000;
  TestWorld w(cfg);
  register_workload(w.platform);
  w.publish(2, "info", serial::Value("primary"));
  w.publish(3, "info", serial::Value("alternate"));

  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary sub;
  sub.step("noop", TestWorld::n(1));
  // Step may run on N2 (primary) or N3 (alternative) — ref [11]'s
  // fault-tolerant step execution.
  sub.step("collect", {TestWorld::n(2), TestWorld::n(3)});
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);

  // N2 goes down before the agent can reach it and stays down a long time.
  w.faults.crash_at(TestWorld::n(2), 100, 60'000'000);

  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  auto* wl = as_workload(fin.get());
  ASSERT_EQ(wl->results().as_list().size(), 1u);
  EXPECT_EQ(wl->results().as_list()[0].as_string(), "alternate");
  EXPECT_EQ(w.platform.outcome(id.value()).final_node, TestWorld::n(3));
}

TEST(FaultTest, CompensationRunsOnAlternativeNodeWhenPrimaryStaysDown) {
  // Sec. 4.3's closing discussion: "provide the information, on which
  // nodes the rollback of a step can be performed alternatively ... in
  // the end-of-step entry. Then a fault-tolerant execution of the
  // rollback ... can be realised." The EOS entry carries the step's
  // alternative locations; the basic algorithm rotates through them when
  // the compensation transaction's node is unreachable.
  PlatformConfig cfg;
  cfg.strategy = RollbackStrategy::basic;  // forces agent travel for CTs
  cfg.stage_timeout_us = 300'000;
  TestWorld w(cfg, /*node_count=*/5);
  register_workload(w.platform);

  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary sub;
  // spend_cash logs only an agent compensation entry, so its CT is sound
  // on any node that can host the agent.
  sub.step("spend_cash", {TestWorld::n(2), TestWorld::n(3)});
  sub.step("noop", TestWorld::n(4));
  sub.step("noop", TestWorld::n(5));
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 3, "abandon", 0);

  // N2 executes the step and commits it (~3.6 ms), then dies for a long
  // time, before the rollback's agent transfer can reach it — the
  // rollback must move the compensation to the alternative N3.
  w.faults.crash_at(TestWorld::n(2), 4'500, 60'000'000);

  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  // The spend was compensated (cash restored to 0 from -25), quickly —
  // via the alternative, not by waiting out the 60 s outage.
  EXPECT_EQ(as_workload(fin.get())->cash(), 0);
  EXPECT_LT(w.platform.outcome(id.value()).finished_at, 10'000'000u);
  // The compensation transaction committed on N3, not the dead N2.
  bool comp_on_alternative = false;
  for (const auto& e : w.platform.spans().of_kind(EventKind::comp_begin)) {
    if (e.node == 3) comp_on_alternative = true;
    EXPECT_NE(e.node, 2u);
  }
  EXPECT_TRUE(comp_on_alternative);
}

}  // namespace
}  // namespace mar
