// End-to-end tests of the agent platform: exactly-once step execution,
// migration, itinerary handling, savepoints, both rollback algorithms, and
// per-node state bounded by the live agents.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "contract/contract.h"
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

/// An itinerary with one top-level sub-itinerary holding `steps`.
Itinerary single_sub(std::vector<std::pair<std::string, int>> steps) {
  Itinerary sub;
  for (auto& [method, node] : steps) {
    sub.step(method, TestWorld::n(node));
  }
  Itinerary main;
  main.sub(std::move(sub));
  return main;
}

TEST(PlatformTest, AgentRunsAcrossNodesAndCompletes) {
  TestWorld w;
  register_workload(w.platform);
  w.publish(1, "info", serial::Value("alpha"));
  w.publish(2, "info", serial::Value("beta"));
  w.publish(3, "info", serial::Value("gamma"));

  auto agent = std::make_unique<WorkloadAgent>();
  agent->itinerary() =
      single_sub({{"collect", 1}, {"collect", 2}, {"collect", 3}});
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));

  const auto& out = w.platform.outcome(id.value());
  ASSERT_EQ(out.state, agent::AgentOutcome::State::done);
  auto final_agent = w.platform.decode(out.final_agent);
  auto* wl = dynamic_cast<WorkloadAgent*>(final_agent.get());
  ASSERT_NE(wl, nullptr);
  EXPECT_EQ(wl->visits(), 3);
  ASSERT_EQ(wl->results().as_list().size(), 3u);
  EXPECT_EQ(wl->results().as_list()[0].as_string(), "alpha");
  EXPECT_EQ(wl->results().as_list()[1].as_string(), "beta");
  EXPECT_EQ(wl->results().as_list()[2].as_string(), "gamma");
  EXPECT_EQ(out.final_node, TestWorld::n(3));
  // Two migrations: N1 -> N2 -> N3.
  EXPECT_EQ(w.platform.spans().count(EventKind::migrate), 2u);
}

TEST(PlatformTest, ResourceEffectsCommitExactlyOnce) {
  TestWorld w;
  register_workload(w.platform);
  w.open_account(1, "acct", 500);
  w.open_account(2, "acct", 500);

  auto agent = std::make_unique<WorkloadAgent>();
  agent->itinerary() = single_sub({{"withdraw", 1}, {"withdraw", 2}});
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);

  EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 400);
  EXPECT_EQ(resource::Bank::balance_in(w.committed(2, "bank"), "acct"), 400);
  auto final_agent = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(dynamic_cast<WorkloadAgent*>(final_agent.get())->cash(), 200);
}

// The paper's core scenario (Fig. 3): steps committed on several nodes,
// rollback initiated later, compensations run in reverse order on the
// nodes that executed the steps, strong objects restored at the savepoint.
TEST(PlatformTest, PartialRollbackRestoresAugmentedState) {
  for (auto strategy : {RollbackStrategy::basic, RollbackStrategy::optimized}) {
    PlatformConfig cfg;
    cfg.strategy = strategy;
    TestWorld w(cfg);
    register_workload(w.platform);
    w.open_account(1, "acct", 1000);
    w.open_account(2, "acct", 1000);
    w.publish(1, "info", serial::Value("x"));

    auto agent = std::make_unique<WorkloadAgent>();
    // Sub-itinerary: collect(N1) withdraw(N1) withdraw(N2) noop(N3):
    // trigger a rollback of the whole sub-itinerary in the last step.
    agent->itinerary() = single_sub(
        {{"collect", 1}, {"withdraw", 1}, {"withdraw", 2}, {"noop", 3}});
    agent->set_trigger("noop", 4, "sub", 0);
    auto id = w.platform.launch(std::move(agent));
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(w.platform.run_until_finished(id.value()));
    ASSERT_EQ(w.platform.outcome(id.value()).state,
              agent::AgentOutcome::State::done)
        << "strategy=" << static_cast<int>(strategy) << " status: "
        << w.platform.outcome(id.value()).status;

    // Resource state: both withdraws compensated, then re-executed after
    // the rollback resumed from the savepoint (the agent re-runs the sub).
    EXPECT_EQ(resource::Bank::balance_in(w.committed(1, "bank"), "acct"), 900);
    EXPECT_EQ(resource::Bank::balance_in(w.committed(2, "bank"), "acct"), 900);

    auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
    auto* wl = dynamic_cast<WorkloadAgent*>(fin.get());
    // Strong results list was restored at the savepoint, then refilled
    // exactly once by the re-executed collect step.
    EXPECT_EQ(wl->results().as_list().size(), 1u) << "strategy "
        << static_cast<int>(strategy);
    // Weak cash: first pass +200, compensation -200, re-run +200.
    EXPECT_EQ(wl->cash(), 200);
    // visits: 3 committed on the first pass (the triggering noop aborted),
    // plus 4 on the re-run after the rollback.
    EXPECT_EQ(wl->visits(), 7);
    EXPECT_GE(w.platform.spans().count(EventKind::comp_commit), 1u);
    EXPECT_EQ(w.platform.spans().count(EventKind::restore), 1u);
    EXPECT_EQ(w.platform.spans().count(EventKind::rollback_done), 1u);
  }
}

TEST(PlatformTest, OptimizedRollbackAvoidsAgentTransfers) {
  // Steps with only RCE/ACE entries: the optimized algorithm must not move
  // the agent at all during rollback; the basic one must visit each node.
  std::uint64_t transfers[2] = {0, 0};
  int i = 0;
  for (auto strategy : {RollbackStrategy::basic, RollbackStrategy::optimized}) {
    PlatformConfig cfg;
    cfg.strategy = strategy;
    TestWorld w(cfg);
    register_workload(w.platform);
    for (int node = 1; node <= 4; ++node) w.open_account(node, "acct", 1000);

    auto agent = std::make_unique<WorkloadAgent>();
    agent->itinerary() = single_sub({{"withdraw", 1},
                                     {"withdraw", 2},
                                     {"withdraw", 3},
                                     {"noop", 4}});
    agent->set_trigger("noop", 4, "sub", 0);
    // Let the re-run not trigger again (visits continue counting).
    auto id = w.platform.launch(std::move(agent));
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(w.platform.run_until_finished(id.value()));
    ASSERT_EQ(w.platform.outcome(id.value()).state,
              agent::AgentOutcome::State::done);
    transfers[i++] = w.platform.rollback_transfers();
  }
  EXPECT_GE(transfers[0], 3u);  // basic: back along N3, N2, N1
  EXPECT_EQ(transfers[1], 0u);  // optimized: RCEs shipped, agent stays
}

TEST(PlatformTest, MixedCompensationForcesAgentTransfer) {
  PlatformConfig cfg;
  cfg.strategy = RollbackStrategy::optimized;
  TestWorld w(cfg);
  register_workload(w.platform);
  w.set_rate(2, "USD", "EUR", 900'000);

  auto agent = std::make_unique<WorkloadAgent>();
  // fund at N1 (MCE: mint), exchange at N2 (MCE: currency), rollback at N3.
  agent->itinerary() =
      single_sub({{"fund", 1}, {"exchange", 2}, {"noop", 3}});
  agent->set_trigger("noop", 3, "sub", 0);
  agent->data().weak("cash") = std::int64_t{200};
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done)
      << w.platform.outcome(id.value()).status;

  // Mixed entries force the agent back to N2 and N1 during rollback.
  EXPECT_GE(w.platform.rollback_transfers(), 2u);

  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  auto* wl = dynamic_cast<WorkloadAgent*>(fin.get());
  // Compensation of the exchange converted 180 EUR back at the inverse
  // rate: 180 EUR -> 199 USD (integer rounding — state-EQUIVALENT, not
  // identical, exactly Sec. 3.2's point); the re-run: 199 -> 179 EUR.
  EXPECT_EQ(wl->data().weak("cash_eur").as_int(), 179);
  EXPECT_EQ(wl->cash(), 0);
  // fund was compensated (wallet emptied) and re-run: 5 coins again, with
  // fresh serial numbers (the paper's digital-cash equivalence).
  ASSERT_EQ(wl->wallet().as_list().size(), 5u);
  EXPECT_GT(wl->wallet().as_list()[0].at("serial").as_int(), 5);
}

TEST(PlatformTest, AdhocSavepointRollback) {
  TestWorld w;
  register_workload(w.platform);
  w.open_account(2, "acct", 300);

  auto agent = std::make_unique<WorkloadAgent>();
  // savepoint at N1, withdraw at N2, trigger explicit rollback at N3 to
  // the ad-hoc savepoint; on resume, re-run withdraw and finish.
  agent->itinerary() = single_sub(
      {{"savepoint", 1}, {"withdraw", 2}, {"noop", 3}});
  agent->set_trigger("noop", 3, "last_sp", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done)
      << w.platform.outcome(id.value()).status;
  // withdraw ran twice, compensated once: net one withdraw.
  EXPECT_EQ(resource::Bank::balance_in(w.committed(2, "bank"), "acct"), 200);
}

TEST(PlatformTest, NonCompensatableStepBlocksRollback) {
  TestWorld w;
  register_workload(w.platform);

  auto agent = std::make_unique<WorkloadAgent>();
  agent->itinerary() = single_sub({{"poison", 1}, {"noop", 2}});
  agent->set_trigger("noop", 2, "sub", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& out = w.platform.outcome(id.value());
  EXPECT_EQ(out.state, agent::AgentOutcome::State::failed);
  EXPECT_EQ(out.status.code(), Errc::not_compensatable);
}

TEST(PlatformTest, LogDiscardedAfterTopLevelSubItinerary) {
  TestWorld w;
  register_workload(w.platform);
  w.open_account(1, "acct", 1000);
  w.open_account(2, "acct", 1000);

  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary main;
  main.sub(Itinerary{}.step("withdraw", TestWorld::n(1)))
      .sub(Itinerary{}.step("withdraw", TestWorld::n(2)));
  agent->itinerary() = std::move(main);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  // One discard per completed top-level sub-itinerary.
  EXPECT_EQ(w.platform.spans().count(EventKind::log_discard), 2u);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_TRUE(fin->log().empty());
}

/// What the nodes keep once every agent they served has terminated.
struct Retained {
  std::size_t log_segments = 0;
  std::size_t max_log_bytes = 0;  ///< largest per-node record log
  std::size_t tracked_keys = 0;   ///< keys with log liveness bookkeeping
  std::size_t ship_bases = 0;     ///< delta-shipping channel bases
  std::size_t dedup_entries = 0;  ///< transfer record ids held for dedup
  std::size_t scheduler_entries = 0;  ///< records the schedulers know of
};

Retained retained(TestWorld& w, int nodes) {
  Retained r;
  for (int i = 1; i <= nodes; ++i) {
    auto& node = w.platform.node(TestWorld::n(i));
    const auto& log = node.storage().segment_log();
    r.log_segments += log.live_segments();
    r.max_log_bytes = std::max(r.max_log_bytes, log.log_bytes());
    r.tracked_keys += log.tracked_keys();
    r.ship_bases += node.shipments().cached_bases();
    r.dedup_entries += node.storage().dedup_entries();
    r.scheduler_entries += node.scheduler().size();
  }
  return r;
}

/// Launch `n` agents of each kind — local, migrating (a channel crossed
/// twice, so deltas ride it) and rolling back (a compensation trip and a
/// re-execution) — and run the world until it is quiet.
void run_batch(TestWorld& w, int n) {
  const auto rollbacks = w.platform.spans().count(EventKind::rollback_begin);
  const auto migrations = w.platform.spans().count(EventKind::migrate);
  std::vector<AgentId> ids;
  for (int i = 0; i < n; ++i) {
    auto local = std::make_unique<WorkloadAgent>();
    local->itinerary() = single_sub(
        {{"noop", 2}, {"work", 2}, {"work", 2}, {"work", 2}, {"work", 2}});
    auto migrating = std::make_unique<WorkloadAgent>();
    migrating->itinerary() = single_sub({{"noop", 1},
                                         {"noop", 2},
                                         {"noop", 3},
                                         {"noop", 4},
                                         {"noop", 1},
                                         {"noop", 2}});
    auto rolling = std::make_unique<WorkloadAgent>();
    rolling->itinerary() =
        single_sub({{"spend_cash", 1}, {"spend_cash", 2}, {"noop", 3}});
    rolling->set_trigger("noop", 3, "sub");
    for (auto* a : {&local, &migrating, &rolling}) {
      auto id = w.platform.launch(std::move(*a));
      ASSERT_TRUE(id.is_ok());
      ids.push_back(id.value());
    }
  }
  ASSERT_TRUE(w.platform.run_until_all_finished(ids));
  w.sim.run();  // late commit callbacks and acks
  for (const auto id : ids) {
    ASSERT_EQ(w.platform.outcome(id).state, agent::AgentOutcome::State::done);
  }
  EXPECT_EQ(w.platform.spans().count(EventKind::rollback_begin) - rollbacks,
            static_cast<std::uint64_t>(n));
  // Migrating: 5 hops; rolling back: 2 forward, 2 back, 2 again.
  EXPECT_EQ(w.platform.spans().count(EventKind::migrate) - migrations,
            static_cast<std::uint64_t>(11 * n));
}

TEST(PlatformTest, RetainedStateTracksLiveAgentsNotServedOnes) {
  // Per-node state must be bounded by the live agents: after N and then
  // 2N more agents have come and gone, a node keeps the same amount of
  // log, liveness bookkeeping and channel bases.
  PlatformConfig cfg;
  cfg.strategy = RollbackStrategy::basic;  // rollbacks move the agent
  cfg.segment_bytes = 512;                 // rotate and retire often
  TestWorld w(cfg);
  register_workload(w.platform);

  run_batch(w, 4);
  const Retained after_n = retained(w, 4);
  run_batch(w, 8);
  const Retained after_3n = retained(w, 4);

  EXPECT_EQ(after_n.log_segments, after_3n.log_segments);
  EXPECT_LE(after_n.log_segments, 4u);  // at most the open segment each
  EXPECT_LE(after_3n.max_log_bytes, cfg.segment_bytes);
  EXPECT_EQ(after_n.tracked_keys, 0u);
  EXPECT_EQ(after_3n.tracked_keys, 0u);
  EXPECT_EQ(after_n.ship_bases, 0u);
  EXPECT_EQ(after_3n.ship_bases, 0u);
  EXPECT_EQ(after_n.scheduler_entries, 0u);
  EXPECT_EQ(after_3n.scheduler_entries, 0u);

  // Record dedup: agents that never cross a node boundary after launch
  // leave no entry behind. (Ids of inbound transfers are still kept for
  // good, DESIGN.md §4.)
  std::vector<AgentId> ids;
  for (int i = 0; i < 8; ++i) {
    auto local = std::make_unique<WorkloadAgent>();
    local->itinerary() = single_sub({{"work", 3}, {"work", 3}, {"work", 3}});
    auto id = w.platform.launch(std::move(local));
    ASSERT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(w.platform.run_until_all_finished(ids));
  w.sim.run();
  EXPECT_EQ(retained(w, 4).dedup_entries, after_3n.dedup_entries);
}

TEST(PlatformTest, NoTimerOutlivesItsReason) {
  // Once the last message of a crash-free run has landed, the world must
  // go quiet within one link round trip: no retransmit (50 ms), inquiry or
  // re-drive (200 ms), stage-timeout or remote-call timeout (2 s) timer
  // may still be armed for a reason that already ended. Cases: migrations
  // batched (window 4) and flushing each commit at once (window 1); an
  // optimized rollback that ships resource compensation entries (RCEs);
  // an adaptive rollback that ships a mixed step's entries (MCE).
  enum class Case { migrate_window_4, migrate_window_1, ship_rces, ship_mce };
  for (const auto c : {Case::migrate_window_4, Case::migrate_window_1,
                       Case::ship_rces, Case::ship_mce}) {
    SCOPED_TRACE(static_cast<int>(c));
    PlatformConfig cfg;
    std::vector<std::unique_ptr<WorkloadAgent>> agents;
    EventKind shipped = EventKind::migrate;
    switch (c) {
      case Case::migrate_window_4:
      case Case::migrate_window_1: {
        const std::uint32_t window = c == Case::migrate_window_4 ? 4 : 1;
        cfg.group_commit_window = window;
        cfg.ship_convoy_window = window;
        for (int i = 0; i < 4; ++i) {
          auto& a = agents.emplace_back(std::make_unique<WorkloadAgent>());
          a->itinerary() = single_sub({{"noop", 1},
                                       {"noop", 2},
                                       {"noop", 3},
                                       {"noop", 4},
                                       {"noop", 1}});
        }
        break;
      }
      case Case::ship_rces: {
        cfg.strategy = RollbackStrategy::optimized;
        shipped = EventKind::rce_shipped;
        auto& a = agents.emplace_back(std::make_unique<WorkloadAgent>());
        a->itinerary() = single_sub(
            {{"withdraw", 1}, {"withdraw", 2}, {"withdraw", 3}, {"noop", 4}});
        a->set_trigger("noop", 4, "sub", 0);
        break;
      }
      case Case::ship_mce: {
        // A heavy agent with a light weak state: shipping the mixed
        // step's entries beats moving the agent back.
        cfg.strategy = RollbackStrategy::adaptive;
        shipped = EventKind::mce_shipped;
        auto& a = agents.emplace_back(std::make_unique<WorkloadAgent>());
        a->itinerary() = single_sub(
            {{"grow_strong", 1}, {"touch_mixed", 2}, {"noop", 3}});
        a->set_trigger("noop", 3, "sub", 0);
        a->set_config("strong_bytes", 16 * 1024);
        a->set_config("weak_bytes", 16);
        a->set_config("param_bytes", 16);
        break;
      }
    }
    TestWorld w(cfg);
    register_workload(w.platform);
    for (int n = 1; n <= 3; ++n) w.open_account(n, "acct", 1000);  // RCEs
    std::vector<AgentId> ids;
    for (auto& a : agents) {
      auto id = w.platform.launch(std::move(a));
      ASSERT_TRUE(id.is_ok());
      ids.push_back(id.value());
    }
    ASSERT_TRUE(w.platform.run_until_all_finished(ids));
    const auto quiet_after = w.drain_after_last_delivery();
    for (const auto id : ids) {
      ASSERT_EQ(w.platform.outcome(id).state,
                agent::AgentOutcome::State::done);
    }
    EXPECT_GT(w.platform.spans().count(shipped), 0u);
    EXPECT_LE(quiet_after, w.header_round_trip())
        << "drained " << quiet_after << " us after the last delivery";
    EXPECT_EQ(w.net.unacked(), 0u);
  }
}

TEST(PlatformTest, RemoteCallTakesOnlyItsAwaitedReplyOnce) {
  // An agent finishing on N1 delivers its result to a mailbox on a
  // hand-driven peer N3: a remote call (ctr.invoke) that waits in N1's
  // waiter table inside the agent's terminal transaction. The peer answers
  // it three times: a reply of the wrong tag for the same transaction, the
  // awaited ctr.result, then a duplicate of it. The call must complete on
  // the awaited reply only, and only once: a second completion would try
  // to commit the finished transaction again, which is a MAR_CHECK failure.
  TestWorld w(PlatformConfig{}, /*node_count=*/2, /*seed=*/5);
  register_workload(w.platform);
  const NodeId peer = TestWorld::n(3);
  const auto tx_body = [](TxId tx, bool flag) {
    serial::Encoder enc;
    enc.write_u64(tx.value());
    enc.write_bool(flag);
    return std::move(enc).take();
  };
  std::vector<net::Message> invokes;
  w.net.add_node(peer);
  w.net.on(peer, net::MsgType::ctr_invoke,
           [&](const net::Message& m) { invokes.push_back(m); });
  // The mailbox joins the terminal transaction's 2PC: vote yes, ack.
  w.net.on(peer, net::MsgType::tx_prepare, [&](const net::Message& m) {
    const TxId tx(serial::Decoder(m.payload).read_u64());
    w.net.send({peer, m.from, net::MsgType::tx_vote, tx_body(tx, true)});
  });
  w.net.on(peer, net::MsgType::tx_commit, [&](const net::Message& m) {
    const TxId tx(serial::Decoder(m.payload).read_u64());
    w.net.send(
        {peer, m.from, net::MsgType::tx_commit_ack, tx_body(tx, false)});
  });

  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = single_sub({{"noop", 1}});
  ag->set_result_target(peer, "result");
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  w.sim.run_until(50'000);
  ASSERT_EQ(invokes.size(), 1u);
  const TxId tx = contract::decode_invoke(invokes[0]).tx;
  const auto answer = [&](net::MsgType type) {
    w.net.send({peer, invokes[0].from, type,
                contract::encode_result(tx, Status::ok())});
    w.sim.run_until(w.sim.now() + 50'000);
  };
  answer(net::MsgType::rce_ack);
  EXPECT_FALSE(w.platform.finished(id.value()))
      << "a reply of the wrong tag completed the call";
  answer(net::MsgType::ctr_result);
  ASSERT_TRUE(w.platform.finished(id.value()));
  EXPECT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  answer(net::MsgType::ctr_result);
  w.sim.run();
  EXPECT_EQ(invokes.size(), 1u);
  EXPECT_TRUE(w.platform.node(TestWorld::n(1)).txm().idle());
}

}  // namespace
}  // namespace mar
