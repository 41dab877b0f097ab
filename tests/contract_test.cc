// Tests for the ConTract-style centralized baseline (Sec. 5 related work):
// remote resource access by RPC, per-step distributed transactions,
// reverse-order compensation, and equivalence with the mobile-agent
// execution of the same workload.
#include <gtest/gtest.h>

#include "contract/contract.h"
#include "harness/agents.h"
#include "harness/world.h"

namespace mar {
namespace {

using contract::ContractManager;
using contract::ScriptStep;
using harness::TestWorld;
using serial::Value;

Value params(std::initializer_list<std::pair<std::string, Value>> kv) {
  Value v = Value::empty_map();
  for (auto& [k, val] : kv) v.set(k, val);
  return v;
}

struct ContractFixture : ::testing::Test {
  TestWorld w{agent::PlatformConfig{}, /*node_count=*/4, /*seed=*/9};
  storage::StableStorage manager_stable;
  std::unique_ptr<ContractManager> manager;
  static constexpr std::uint32_t kManagerNode = 99;

  void SetUp() override {
    harness::register_workload(w.platform);  // compensation ops
    w.net.add_node(NodeId(kManagerNode));
    manager = std::make_unique<ContractManager>(
        NodeId(kManagerNode), w.sim, w.net, manager_stable,
        w.platform.compensations());
  }

  ScriptStep withdraw_step(int node) {
    ScriptStep s;
    s.node = TestWorld::n(node);
    s.resource = "bank";
    s.op = "withdraw";
    s.params = params({{"account", Value("acct")}, {"amount", Value(100)}});
    s.comp_op = "comp.deposit";
    s.comp_params =
        params({{"account", Value("acct")}, {"amount", Value(100)}});
    return s;
  }
};

TEST_F(ContractFixture, ScriptExecutesRemotely) {
  w.open_account(1, "acct", 500);
  w.open_account(2, "acct", 500);
  Status result(Errc::protocol_error, "never called");
  manager->run({withdraw_step(1), withdraw_step(2)},
               [&](Status s) { result = s; });
  w.sim.run();
  EXPECT_TRUE(result.is_ok());
  EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 400);
  EXPECT_EQ(resource::Bank::balance_in(w.committed(2, "bank"), "acct"), 400);
  EXPECT_EQ(manager->stats().steps_committed, 2u);
  EXPECT_TRUE(manager->txm().idle());
}

TEST_F(ContractFixture, RollbackCompensatesInReverseOrder) {
  w.open_account(1, "acct", 500);
  w.open_account(2, "acct", 500);
  bool ran = false;
  manager->run({withdraw_step(1), withdraw_step(2)},
               [&](Status) { ran = true; });
  w.sim.run();
  ASSERT_TRUE(ran);
  bool rolled = false;
  manager->rollback(2, [&](Status s) {
    rolled = s.is_ok();
  });
  w.sim.run();
  EXPECT_TRUE(rolled);
  EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 500);
  EXPECT_EQ(resource::Bank::balance_in(w.committed(2, "bank"), "acct"), 500);
  EXPECT_EQ(manager->stats().steps_compensated, 2u);
  // Forward execution can resume after the partial rollback.
  bool reran = false;
  manager->run({withdraw_step(1)}, [&](Status s) { reran = s.is_ok(); });
  w.sim.run();
  EXPECT_TRUE(reran);
  EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 400);
}

TEST_F(ContractFixture, StepsWithoutCompensationSkipRpc) {
  w.publish(1, "info", Value("x"));
  ScriptStep read;
  read.node = TestWorld::n(1);
  read.resource = "dir";
  read.op = "lookup";
  read.params = params({{"key", Value("info")}});
  bool ran = false;
  manager->run({read}, [&](Status s) { ran = s.is_ok(); });
  w.sim.run();
  ASSERT_TRUE(ran);
  const auto rpcs_before = manager->stats().rpcs;
  bool rolled = false;
  manager->rollback(1, [&](Status s) { rolled = s.is_ok(); });
  w.sim.run();
  EXPECT_TRUE(rolled);
  EXPECT_EQ(manager->stats().rpcs, rpcs_before);  // nothing to compensate
}

TEST_F(ContractFixture, SurvivesResourceNodeCrash) {
  w.open_account(1, "acct", 500);
  w.faults.crash_at(TestWorld::n(1), 1'000, 400'000);
  bool ran = false;
  manager->run({withdraw_step(1)}, [&](Status s) { ran = s.is_ok(); });
  w.sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 400);
}

TEST_F(ContractFixture, FailingOperationRetriesUntilItSucceeds) {
  // Account is underfunded at first; money arrives later.
  w.open_account(1, "acct", 0);
  bool ran = false;
  manager->run({withdraw_step(1)}, [&](Status s) { ran = s.is_ok(); });
  w.sim.schedule_at(300'000, [&] {
    auto state = w.committed(1, "bank");
    state.as_map().at("accounts").as_map().at("acct").set("balance",
                                                          std::int64_t{150});
    w.platform.node(TestWorld::n(1)).resources().poke_state(
        "bank", std::move(state));
  });
  w.sim.run();
  EXPECT_TRUE(ran);
  EXPECT_GE(manager->stats().tx_aborts, 1u);
  EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 50);
}

// The central baseline and the mobile agent must compute the same
// committed resource state for the same logical workload.
TEST_F(ContractFixture, CentralAndMobileAgreeOnFinalState) {
  for (int n = 1; n <= 3; ++n) w.open_account(n, "acct", 1000);
  // Central: withdraw on N1..N3.
  bool ran = false;
  manager->run({withdraw_step(1), withdraw_step(2), withdraw_step(3)},
               [&](Status s) { ran = s.is_ok(); });
  w.sim.run();
  ASSERT_TRUE(ran);

  // Mobile: a second identical pass via an agent.
  auto agent = std::make_unique<harness::WorkloadAgent>();
  agent::Itinerary sub;
  for (int n = 1; n <= 3; ++n) sub.step("withdraw", TestWorld::n(n));
  agent::Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);

  for (int n = 1; n <= 3; ++n) {
    EXPECT_EQ(resource::Bank::balance_in(w.committed(n, "bank"), "acct"), 800)
        << "node " << n;
  }
}

}  // namespace
}  // namespace mar
