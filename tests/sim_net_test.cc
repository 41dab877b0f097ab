// Unit tests for the discrete-event kernel and the simulated network
// (latency/bandwidth cost model, reliable transport, fault handling).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/fault_injector.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace mar {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsMayScheduleMoreEvents) {
  sim::Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sim.schedule_after(5, chain);
  };
  sim.schedule_after(0, chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), 45u);
}

TEST(SimulatorTest, SchedulingIntoThePastChecks) {
  sim::Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), LogicError);
}

TEST(SimulatorTest, RunUntilAdvancesClock) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, RunWhilePendingStopsOnPredicate) {
  sim::Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i * 10, [&] { ++count; });
  const bool hit = sim.run_while_pending([&] { return count == 4; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 4);
}

TEST(SimulatorTest, CancelMatchesReferenceModel) {
  // Random schedule / cancel / step sequences against a reference queue
  // ordered by (at, seq): the executed order and pending() must agree,
  // and cancel must report exactly the ids the reference still holds.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    sim::Simulator sim;
    std::map<std::pair<sim::TimeUs, std::uint64_t>, int> ref;
    std::vector<std::pair<sim::EventId, std::pair<sim::TimeUs, std::uint64_t>>>
        ids;
    std::vector<int> ran;
    std::vector<int> expected;
    std::uint64_t seq = 0;
    int label = 0;
    for (int op = 0; op < 3000; ++op) {
      const auto dice = rng.next_below(10);
      if (dice < 5) {
        const sim::TimeUs at = sim.now() + rng.next_below(21);
        const int l = label++;
        const auto id = sim.schedule_at(at, [&ran, l] { ran.push_back(l); });
        ref.emplace(std::make_pair(at, seq), l);
        ids.emplace_back(id, std::make_pair(at, seq));
        ++seq;
      } else if (dice < 7 && !ids.empty()) {
        const auto& [id, key] =
            ids[rng.next_below(ids.size())];
        EXPECT_EQ(sim.cancel(id), ref.erase(key) == 1);
      } else if (!ref.empty()) {
        expected.push_back(ref.begin()->second);
        ref.erase(ref.begin());
        ASSERT_TRUE(sim.step());
      }
      ASSERT_EQ(sim.pending(), ref.size());
    }
    for (const auto& [key, l] : ref) expected.push_back(l);
    sim.run();
    EXPECT_EQ(ran, expected);
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(SimulatorTest, StaleIdCannotCancelReusedSlot) {
  sim::Simulator sim;
  int fired = 0;
  const auto first = sim.schedule_at(10, [&] { ++fired; });
  sim.run();
  const auto second = sim.schedule_at(20, [&] { fired += 10; });
  ASSERT_EQ(first.slot, second.slot);  // the slot was reused
  EXPECT_FALSE(sim.scheduled(first));
  EXPECT_FALSE(sim.cancel(first));     // generation check
  EXPECT_TRUE(sim.scheduled(second));
  sim.run();
  EXPECT_EQ(fired, 11);
  EXPECT_FALSE(sim.cancel(second));    // already ran
  EXPECT_FALSE(sim.cancel(sim::EventId{}));
}

TEST(SimulatorTest, EventCancelsSameInstantSibling) {
  sim::Simulator sim;
  std::vector<int> order;
  sim::EventId sibling;
  sim.schedule_at(5, [&] {
    order.push_back(1);
    EXPECT_TRUE(sim.cancel(sibling));
    EXPECT_FALSE(sim.cancel(sibling));  // cancelled ids stay cancelled
  });
  sibling = sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  EXPECT_EQ(sim.pending(), 3u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulatorTest, CancellingTheRunningEventIsANoOp) {
  sim::Simulator sim;
  sim::EventId self;
  int runs = 0;
  self = sim.schedule_at(7, [&] {
    ++runs;
    EXPECT_FALSE(sim.scheduled(self));
    EXPECT_FALSE(sim.cancel(self));
    // Its slot is free already: a new event may take it and must survive.
    const auto next = sim.schedule_after(1, [&] { ++runs; });
    EXPECT_FALSE(sim.cancel(self));
    EXPECT_TRUE(sim.scheduled(next));
  });
  sim.run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(sim.now(), 8u);
}

TEST(SimulatorTest, LargeCapturesAreMovedNotCopied) {
  sim::Simulator sim;
  auto payload = std::make_unique<std::array<std::uint64_t, 32>>();
  (*payload)[31] = 42;
  std::uint64_t seen = 0;
  std::array<std::uint64_t, 16> wide{};  // beyond the inline buffer
  wide[15] = 1;
  sim.schedule_after(1, [&seen, wide, p = std::move(payload)] {
    seen = (*p)[31] + wide[15];
  });
  sim.run();
  EXPECT_EQ(seen, 43u);
}

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<std::pair<NodeId, net::MsgType>> received;
  /// The tag of messages whose type a test does not care about.
  static constexpr auto kX = net::MsgType::tx_vote;

  /// Add node `id`, recording every tag it receives.
  void add(std::uint32_t id) {
    net.add_node(NodeId(id));
    for (std::size_t t = 0; t < net::kMsgTypeCount; ++t) {
      net.on(NodeId(id), static_cast<net::MsgType>(t),
             [this, id](const net::Message& m) {
               received.emplace_back(NodeId(id), m.type);
             });
    }
  }
  static net::Message msg(std::uint32_t from, std::uint32_t to,
                          net::MsgType type = kX, std::size_t size = 0) {
    net::Message m;
    m.from = NodeId(from);
    m.to = NodeId(to);
    m.type = type;
    m.payload.resize(size);
    return m;
  }
};

TEST_F(NetFixture, DeliversWithLatencyAndBandwidth) {
  add(1);
  add(2);
  net::LinkParams lp;
  lp.latency_us = 1000;
  lp.bandwidth_bytes_per_us = 2.0;
  net.set_default_link(lp);

  net.send(msg(1, 2, kX, 2000));  // + header
  sim.run_while_pending([&] { return !received.empty(); });
  const auto expected =
      1000 + static_cast<sim::TimeUs>((2000 + 7 + 48) / 2.0);  // "tx.vote"
  EXPECT_EQ(sim.now(), expected);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].second, kX);
}

TEST_F(NetFixture, TransferTimeMatchesFormula) {
  add(1);
  add(2);
  net::LinkParams lp;
  lp.latency_us = 500;
  lp.bandwidth_bytes_per_us = 1.25;
  net.set_link(NodeId(1), NodeId(2), lp);
  EXPECT_EQ(net.transfer_time(NodeId(1), NodeId(2), 1250), 500u + 1000u);
  EXPECT_EQ(net.transfer_time(NodeId(1), NodeId(1), 9999), 0u);
}

TEST_F(NetFixture, LocalSendBypassesNetworkCost) {
  add(1);
  net.send(msg(1, 1));
  sim.run();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(received.size(), 1u);
  EXPECT_EQ(net.stats().bytes_sent, 0u);
}

TEST_F(NetFixture, RetransmitsUntilNodeRecovers) {
  add(1);
  add(2);
  net.crash_node(NodeId(2));
  net.send(msg(1, 2));
  sim.schedule_at(500'000, [&] { net.recover_node(NodeId(2)); });
  sim.run_while_pending([&] { return !received.empty(); });
  ASSERT_EQ(received.size(), 1u);
  EXPECT_GE(sim.now(), 500'000u);
  EXPECT_GT(net.stats().transmissions, 1u);
  // Exactly one dispatch despite many transmissions.
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(NetFixture, LinkOutageDelaysDelivery) {
  add(1);
  add(2);
  net.set_link_up(NodeId(1), NodeId(2), false);
  net.send(msg(1, 2));
  sim.schedule_at(300'000, [&] { net.set_link_up(NodeId(1), NodeId(2), true); });
  sim.run_while_pending([&] { return !received.empty(); });
  EXPECT_EQ(received.size(), 1u);
  EXPECT_GE(sim.now(), 300'000u);
}

TEST_F(NetFixture, StatsAccumulatePerType) {
  add(1);
  add(2);
  net.send(msg(1, 2, net::MsgType::tx_prepare, 100));
  net.send(msg(1, 2, net::MsgType::tx_prepare, 100));
  net.send(msg(1, 2, net::MsgType::tx_vote, 10));
  sim.run_while_pending([&] { return received.size() == 3; });
  EXPECT_EQ(net.stats().messages_sent, 3u);
  EXPECT_EQ(net.stats().bytes_of(net::MsgType::tx_prepare),
            2 * (100 + 10 + 48u));
  EXPECT_EQ(net.stats().bytes_of(net::MsgType::tx_vote), 10 + 7 + 48u);
  EXPECT_EQ(net.stats().bytes_of(net::MsgType::tx_commit), 0u);
}

TEST(MsgTypeTest, NamesAndWireChargeKeepTheNameTaggedFrame) {
  // Each tag's name is the string that once travelled as the type, and
  // the wire charge still counts its length: byte meters and transfer
  // times are those of a name-tagged frame.
  const std::map<net::MsgType, std::string> names = {
      {net::MsgType::tx_prepare, "tx.prepare"},
      {net::MsgType::tx_vote, "tx.vote"},
      {net::MsgType::tx_commit, "tx.commit"},
      {net::MsgType::tx_commit_ack, "tx.commit_ack"},
      {net::MsgType::tx_abort, "tx.abort"},
      {net::MsgType::tx_inquiry, "tx.inquiry"},
      {net::MsgType::tx_decision, "tx.decision"},
      {net::MsgType::ship_convoy, "ship.convoy"},
      {net::MsgType::ship_convoy_ack, "ship.convoy_ack"},
      {net::MsgType::rce_exec, "rce.exec"},
      {net::MsgType::rce_ack, "rce.ack"},
      {net::MsgType::mce_exec, "mce.exec"},
      {net::MsgType::mce_ack, "mce.ack"},
      {net::MsgType::ctr_invoke, "ctr.invoke"},
      {net::MsgType::ctr_result, "ctr.result"},
  };
  ASSERT_EQ(names.size(), net::kMsgTypeCount);
  for (const auto& [type, name] : names) {
    EXPECT_EQ(net::name(type), name);
    net::Message m{NodeId(1), NodeId(2), type, serial::Bytes(123)};
    EXPECT_EQ(m.wire_size(), 123 + name.size() + 48) << name;
  }
  EXPECT_EQ(net::reply_of(net::MsgType::rce_exec), net::MsgType::rce_ack);
  EXPECT_EQ(net::reply_of(net::MsgType::mce_exec), net::MsgType::mce_ack);
  EXPECT_EQ(net::reply_of(net::MsgType::ctr_invoke),
            net::MsgType::ctr_result);
  EXPECT_EQ(net::reply_of(net::MsgType::ctr_result), std::nullopt);
}

TEST(MsgTypeTest, EachTagReachesItsOwnHandlerRemoteAndLocal) {
  sim::Simulator sim;
  net::Network net(sim);
  std::vector<std::pair<NodeId, NodeId>> prepares;  // (receiver, sender)
  std::vector<std::pair<NodeId, NodeId>> aborts;
  for (const NodeId id : {NodeId(1), NodeId(2)}) {
    net.add_node(id);
    net.on(id, net::MsgType::tx_prepare, [&prepares, id](const auto& m) {
      prepares.emplace_back(id, m.from);
    });
    net.on(id, net::MsgType::tx_abort, [&aborts, id](const auto& m) {
      aborts.emplace_back(id, m.from);
    });
  }
  net.send({NodeId(1), NodeId(2), net::MsgType::tx_prepare, {}});
  net.send({NodeId(1), NodeId(2), net::MsgType::tx_abort, {}});
  net.send({NodeId(1), NodeId(1), net::MsgType::tx_abort, {}});  // local
  net.send({NodeId(2), NodeId(2), net::MsgType::tx_prepare, {}});
  sim.run();
  using Pairs = std::vector<std::pair<NodeId, NodeId>>;
  // The local sends land first, at the send instant.
  EXPECT_EQ(prepares,
            (Pairs{{NodeId(2), NodeId(2)}, {NodeId(2), NodeId(1)}}));
  EXPECT_EQ(aborts, (Pairs{{NodeId(1), NodeId(1)}, {NodeId(2), NodeId(1)}}));
  EXPECT_EQ(net.stats().messages_delivered, 4u);
}

/// The LogicError `fn` throws; fails the test if it throws none.
template <class F>
std::string check_failure(F fn) {
  try {
    fn();
  } catch (const LogicError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no MAR_CHECK failure";
  return {};
}

TEST(MsgTypeTest, DuplicateRegistrationFailsNamingNodeAndTag) {
  sim::Simulator sim;
  net::Network net(sim);
  net.add_node(NodeId(7));
  net.on(NodeId(7), net::MsgType::ship_convoy, [](const net::Message&) {});
  const auto what = check_failure([&] {
    net.on(NodeId(7), net::MsgType::ship_convoy, [](const net::Message&) {});
  });
  EXPECT_NE(what.find("node 7"), std::string::npos) << what;
  EXPECT_NE(what.find("ship.convoy"), std::string::npos) << what;
}

TEST(MsgTypeTest, UnregisteredArrivalFailsNamingNodeAndTag) {
  for (const std::uint32_t from : {1u, 7u}) {  // remote, then local
    sim::Simulator sim;
    net::Network net(sim);
    net.add_node(NodeId(1));
    net.add_node(NodeId(7));
    net.on(NodeId(7), net::MsgType::rce_exec, [](const net::Message&) {});
    net.send({NodeId(from), NodeId(7), net::MsgType::mce_exec, {}});
    const auto what = check_failure([&] { sim.run(); });
    EXPECT_NE(what.find("node 7"), std::string::npos) << what;
    EXPECT_NE(what.find("mce.exec"), std::string::npos) << what;
    EXPECT_EQ(net.stats().messages_delivered, 0u);
  }
}

TEST_F(NetFixture, CrashNotifiesSubscribers) {
  add(1);
  std::vector<std::pair<NodeId, bool>> events;
  net.subscribe_node_state(
      [&](NodeId n, bool up) { events.emplace_back(n, up); });
  net.crash_node(NodeId(1));
  net.crash_node(NodeId(1));  // idempotent
  net.recover_node(NodeId(1));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].second);
  EXPECT_TRUE(events[1].second);
}

TEST_F(NetFixture, DedupStateIsBoundedByTheUnackedWindow) {
  add(1);
  add(2);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) net.send(msg(1, 2, kX, i % 7 * 100));
    // Mid-flight: never more than a watermark per sender plus the
    // numbers delivered above it, all of them still unacked.
    for (int i = 0; i < 150 && sim.step(); ++i) {
      ASSERT_LE(net.dedup_entries(NodeId(2)), 1 + net.unacked());
    }
    sim.run();
  }
  EXPECT_EQ(received.size(), 1000u);
  EXPECT_EQ(net.unacked(), 0u);
  EXPECT_EQ(net.dedup_entries(NodeId(2)), 1u);  // one watermark, nothing else

  // A receiver crash forgets the watermark; the sender's low-water mark
  // restores it at the next arrival instead of leaving a gap to fill.
  net.crash_node(NodeId(2));
  net.recover_node(NodeId(2));
  for (int i = 0; i < 10; ++i) net.send(msg(1, 2));
  sim.run();
  EXPECT_EQ(received.size(), 1010u);
  EXPECT_EQ(net.dedup_entries(NodeId(2)), 1u);

  // A sender crash loses its unacked numbers for good; the new
  // incarnation's numbering does not wait for them.
  net.crash_node(NodeId(2));
  for (int i = 0; i < 5; ++i) net.send(msg(1, 2));
  sim.run_until(sim.now() + 10'000);  // dropped at the crashed receiver
  net.crash_node(NodeId(1));
  net.recover_node(NodeId(1));
  net.recover_node(NodeId(2));
  for (int i = 0; i < 50; ++i) net.send(msg(1, 2, net::MsgType::tx_decision));
  sim.run();
  EXPECT_EQ(received.size(), 1060u);
  EXPECT_EQ(received.back().second, net::MsgType::tx_decision);
  EXPECT_EQ(net.dedup_entries(NodeId(2)), 1u);

  // Copies of the old incarnation already in flight when the sender
  // crashes still land once, under their own window, which goes once the
  // last of them has landed.
  for (int i = 0; i < 5; ++i) net.send(msg(1, 2));
  net.crash_node(NodeId(1));
  net.recover_node(NodeId(1));
  net.send(msg(1, 2));
  sim.run();
  EXPECT_EQ(received.size(), 1066u);
  EXPECT_EQ(net.dedup_entries(NodeId(2)), 2u);  // both incarnations
  sim.run_until(sim.now() + 1'000);
  net.send(msg(1, 2));
  sim.run();
  EXPECT_EQ(received.size(), 1067u);
  EXPECT_EQ(net.dedup_entries(NodeId(2)), 1u);
}

TEST_F(NetFixture, RetransmissionWhoseAckWasLostIsSuppressed) {
  add(1);
  add(2);
  net.send(msg(1, 2));
  // Delivered at 544 us; its ack would land at 1056 us. Take the link
  // down in between, past the first retransmission (lost as well), so the
  // second retransmission reaches a receiver that already has the message.
  net::FaultInjector faults(sim, net);
  faults.link_down_at(NodeId(1), NodeId(2), 600, 60'000);
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
  EXPECT_EQ(net.stats().transmissions, 3u);
  EXPECT_EQ(net.unacked(), 0u);
  // The drain ends at the duplicate's ack: no retransmit timer survives it.
  const auto wire = msg(1, 2).wire_size();
  EXPECT_EQ(sim.now(),
            100'000u + net.transfer_time(NodeId(1), NodeId(2), wire) +
                net.transfer_time(NodeId(2), NodeId(1), 16));
}

TEST(FaultInjectorTest, ScheduledCrashesFire) {
  sim::Simulator sim;
  net::Network net(sim);
  net.add_node(NodeId(1));
  net::FaultInjector inj(sim, net);
  inj.crash_at(NodeId(1), 1000, 500);
  sim.run_until(999);
  EXPECT_TRUE(net.node_up(NodeId(1)));
  sim.run_until(1200);
  EXPECT_FALSE(net.node_up(NodeId(1)));
  sim.run_until(2000);
  EXPECT_TRUE(net.node_up(NodeId(1)));
  EXPECT_EQ(inj.crashes_injected(), 1u);
}

TEST(FaultInjectorTest, RandomPlanIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    net::Network net(sim);
    for (std::uint32_t i = 1; i <= 3; ++i) {
      net.add_node(NodeId(i));
    }
    net::FaultInjector inj(sim, net);
    Rng rng(seed);
    net::FaultInjector::CrashPlan plan;
    plan.mean_time_between_crashes_us = 100'000;
    plan.mean_downtime_us = 10'000;
    plan.horizon_us = 1'000'000;
    inj.random_crashes(net.node_ids(), rng, plan);
    sim.run();
    return std::make_pair(inj.crashes_injected(), sim.now());
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace mar
