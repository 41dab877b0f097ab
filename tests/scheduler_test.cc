// Slotted node scheduler (node_concurrency) and the expt/ parallel
// multi-world driver.
//
// The first tests drive agent::Scheduler alone, over a bare stable queue
// and queue manager: admission order, slot exits, and the lifetime of a
// record's entry (it dies with its record or its staging, and a crash
// keeps only its attempt count). The exactly-once step protocol isolates
// concurrent queue records through transactions and resource locks; the
// platform tests pin down what the slotted scheduler layers on top:
// interleaved progress of several agents on one node, lock-conflict
// abort/retry between slots, crash-epoch invalidation of in-flight slots
// with a restartable queue, and determinism of seed-replicated worlds run
// on OS threads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "agent/scheduler.h"
#include "expt/parallel_worlds.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "storage/stable_storage.h"
#include "tx/queue_manager.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using agent::Scheduler;
using harness::TestWorld;
using harness::WorkloadAgent;
using storage::QueueRecord;

// ---------------------------------------------------------------------------
// The scheduler table, driven without a Platform
// ---------------------------------------------------------------------------

QueueRecord record(std::uint64_t id, std::uint64_t agent) {
  QueueRecord r;
  r.record_id = id;
  r.agent = AgentId(agent);
  r.payload = {1, 2, 3};
  return r;
}

/// One node's queue and its scheduler, nothing else.
struct Rig {
  explicit Rig(std::uint32_t slots) {
    cfg.node_concurrency = slots;
    cfg.max_compensation_attempts = 2;
  }
  agent::PlatformConfig cfg;
  storage::StableStorage storage;
  tx::QueueManager qm{storage};
  Rng rng{1};
  Scheduler sched{cfg, storage, qm, rng};

  /// The id of the record the next claim admits (0: none).
  std::uint64_t claim() {
    const QueueRecord* r = sched.claim();
    return r == nullptr ? 0 : r->record_id;
  }
  /// Abort the record in its slot, counting an attempt.
  void abort(std::uint64_t id) {
    const auto backoff = sched.abort_exit(*storage.find_record(id),
                                          Scheduler::Attempt::counted, 0);
    ASSERT_TRUE(backoff.has_value());
    EXPECT_GE(*backoff, cfg.retry_backoff_us);
    EXPECT_LE(*backoff, 2 * cfg.retry_backoff_us);
  }
  /// Commit a transaction that consumes the record.
  void consume(std::uint64_t id, TxId tx) {
    qm.stage_remove(tx, id);
    qm.commit(tx);
  }
};

TEST(SchedulerTableTest, FifoOfferWhileNothingAborts) {
  Rig b(3);
  b.storage.enqueue(record(1, 1));
  b.storage.enqueue(record(2, 2));
  b.storage.enqueue(record(3, 2));
  // First record not in a slot whose agent is not in one, in queue order.
  EXPECT_EQ(b.claim(), 1u);
  EXPECT_EQ(b.claim(), 2u);
  EXPECT_TRUE(b.sched.holds(1));
  EXPECT_TRUE(b.sched.holds(2));
  // Record 3's agent is in a slot: per-agent exclusion, a slot left free.
  EXPECT_EQ(b.claim(), 0u);
  EXPECT_EQ(b.sched.size(), 0u);  // nothing aborted, nothing aged

  Rig one(1);
  one.storage.enqueue(record(1, 1));
  one.storage.enqueue(record(2, 2));
  EXPECT_EQ(one.claim(), 1u);
  EXPECT_EQ(one.claim(), 0u);  // the only slot is taken
}

TEST(SchedulerTableTest, AgedAdmissionUnpinsAbortedHeadWithoutStarvingIt) {
  // A repeatedly conflict-aborted record must not pin the queue head:
  // records behind it are admitted first, and every bypass ages the
  // passed-over record back towards admission (bounded bypassing).
  Rig b(3);
  for (std::uint64_t id = 1; id <= 3; ++id) b.storage.enqueue(record(id, id));

  ASSERT_EQ(b.claim(), 1u);
  b.abort(1);  // score(1) = 1 release − 0 bypasses
  // The aged score admits the fresher record ahead of the head, which is
  // passed over once (score 0)...
  EXPECT_EQ(b.claim(), 2u);
  // ...so on a tie it is back in front, and aborts again (score 1).
  ASSERT_EQ(b.claim(), 1u);
  b.abort(1);
  EXPECT_EQ(b.claim(), 3u);  // bypassed again: score 0
  // 2 and 3 abort once each: the aged head is back in front — bounded
  // bypassing, no starvation.
  b.abort(2);
  b.abort(3);
  EXPECT_EQ(b.claim(), 1u);
  EXPECT_EQ(b.sched.attempts(1), 2u);

  // Its transaction consumes it: the entry goes with the record, and the
  // commit exit frees the slot.
  b.consume(1, TxId(100));
  EXPECT_EQ(b.sched.attempts(1), 0u);
  EXPECT_TRUE(b.sched.holds(1));
  b.sched.commit_exit(1);
  EXPECT_FALSE(b.sched.holds(1));
  EXPECT_EQ(b.sched.size(), 2u);
  EXPECT_EQ(b.claim(), 2u);  // tie between 2 and 3: FIFO
}

TEST(SchedulerTableTest, BoundedAttemptGivesUpAndKeepsTheSlot) {
  Rig b(1);
  b.storage.enqueue(record(1, 1));
  ASSERT_EQ(b.claim(), 1u);
  const QueueRecord& rec = *b.storage.find_record(1);
  // A failed terminal commit retries without counting.
  ASSERT_TRUE(
      b.sched.abort_exit(rec, Scheduler::Attempt::uncounted, 0).has_value());
  EXPECT_EQ(b.sched.attempts(1), 0u);
  ASSERT_EQ(b.claim(), 1u);
  ASSERT_TRUE(
      b.sched.abort_exit(rec, Scheduler::Attempt::bounded, 0).has_value());
  ASSERT_EQ(b.claim(), 1u);
  // The second failed compensation reaches max_compensation_attempts.
  EXPECT_FALSE(
      b.sched.abort_exit(rec, Scheduler::Attempt::bounded, 0).has_value());
  EXPECT_EQ(b.sched.attempts(1), 2u);
  EXPECT_TRUE(b.sched.holds(1));
}

TEST(SchedulerTableTest, CrashKeepsOnlyAttemptCounts) {
  Rig b(2);
  b.storage.enqueue(record(1, 1));
  b.storage.enqueue(record(2, 2));
  b.storage.enqueue(record(3, 3));
  ASSERT_EQ(b.claim(), 1u);
  QueueRecord traced = *b.storage.find_record(1);
  traced.hop_span_id = 7;
  traced.hop_begin_us = 10;
  ASSERT_TRUE(b.sched.abort_exit(traced, Scheduler::Attempt::counted, 40)
                  .has_value());
  b.sched.keep_resident(3, std::make_shared<WorkloadAgent>());
  ASSERT_EQ(b.claim(), 2u);  // aged: record 1 is passed over
  ASSERT_EQ(b.claim(), 1u);
  EXPECT_EQ(b.sched.resident_agents(), 1u);

  b.sched.crash();
  // Every slot, the aging counts, the hop stash and the resident agent
  // are gone...
  for (const std::uint64_t id : {1, 2, 3}) EXPECT_FALSE(b.sched.holds(id));
  EXPECT_EQ(b.sched.resident_agents(), 0u);
  EXPECT_EQ(b.sched.take_hop(1).span_id, 0u);
  // ...but record 1 keeps its attempt: its retry after recovery routes to
  // the next alternative node, as it would have without the crash.
  EXPECT_EQ(b.sched.attempts(1), 1u);
  EXPECT_EQ(b.sched.size(), 1u);
  const std::vector<NodeId> dests{TestWorld::n(1), TestWorld::n(2)};
  EXPECT_EQ(dests[b.sched.attempts(1) % dests.size()], TestWorld::n(2));
  // Recovery re-offers the queue in plain FIFO order.
  EXPECT_EQ(b.claim(), 1u);
  EXPECT_EQ(b.claim(), 2u);
  // An abort after recovery stashes its hop span again for the re-claim.
  traced.hop_span_id = 8;
  ASSERT_TRUE(b.sched.abort_exit(traced, Scheduler::Attempt::counted, 50)
                  .has_value());
  EXPECT_EQ(b.sched.take_hop(1).span_id, 8u);
}

TEST(SchedulerTableTest, AnEntryDiesWithItsRecordOrItsStaging) {
  Rig b(1);
  b.storage.enqueue(record(1, 1));
  ASSERT_EQ(b.claim(), 1u);
  QueueRecord traced = *b.storage.find_record(1);
  traced.hop_span_id = 7;
  ASSERT_TRUE(b.sched.abort_exit(traced, Scheduler::Attempt::counted, 40)
                  .has_value());
  ASSERT_EQ(b.claim(), 1u);
  const auto stash = b.sched.take_hop(1);  // the re-claim resumes the span
  EXPECT_EQ(stash.span_id, 7u);
  EXPECT_EQ(stash.lock_wait_since, 40u);
  EXPECT_EQ(b.sched.take_hop(1).span_id, 0u);  // taken once

  // The successor staged by the consuming transaction gets a resident
  // agent; the transaction aborts, so the staging and its entry go.
  const TxId first(1);
  b.qm.stage_remove(first, 1);
  b.qm.stage_enqueue(first, record(2, 1));
  b.sched.keep_resident(2, std::make_shared<WorkloadAgent>());
  b.qm.abort(first);
  EXPECT_EQ(b.sched.resident_agents(), 0u);
  EXPECT_EQ(b.sched.size(), 1u);  // record 1's attempt

  // A transfer staged here that duplicates a queued record leaves that
  // record's entry alone when it aborts.
  const TxId dup(2);
  b.qm.stage_transfer(dup, record(1, 1));
  b.qm.abort(dup);
  EXPECT_EQ(b.sched.attempts(1), 1u);
  // A transfer delivered again after its record was consumed commits as
  // a duplicate: the entry its handoff made goes with it.
  b.storage.enqueue(record(9, 9));
  b.consume(9, TxId(5));
  b.qm.stage_transfer(TxId(6), record(9, 9));
  b.sched.keep_resident(9, std::make_shared<WorkloadAgent>());
  b.qm.commit(TxId(6));
  EXPECT_EQ(b.storage.find_record(9), nullptr);
  EXPECT_EQ(b.sched.resident_agents(), 0u);

  // The next attempt commits: the record leaves the queue, and with it
  // the entry, before the commit exit runs.
  const TxId second(3);
  b.qm.stage_remove(second, 1);
  b.qm.stage_enqueue(second, record(3, 1));
  b.sched.keep_resident(3, std::make_shared<WorkloadAgent>());
  b.qm.commit(second);
  EXPECT_EQ(b.sched.attempts(1), 0u);
  b.sched.commit_exit(1);
  EXPECT_NE(b.sched.take_resident(3), nullptr);
  // An entry with nothing left in it lives until its record goes.
  EXPECT_EQ(b.sched.size(), 1u);
  ASSERT_EQ(b.claim(), 3u);
  b.consume(3, TxId(4));
  b.sched.commit_exit(3);
  EXPECT_EQ(b.sched.size(), 0u);
}

std::unique_ptr<WorkloadAgent> fleet_agent(const std::string& step,
                                           int steps) {
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int s = 0; s < steps; ++s) tour.step(step, TestWorld::n(1));
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  if (step == "bank_hot") {
    // One hot account for the whole fleet: every step writes the same
    // key, so any two concurrent steps conflict.
    serial::Value accounts = serial::Value::empty_list();
    accounts.push_back(serial::Value(std::int64_t{0}));
    ag->set_config_value("hot_accounts", std::move(accounts));
  }
  return ag;
}

struct FleetRun {
  bool all_done = false;
  sim::TimeUs makespan_us = 0;
  std::uint64_t lock_conflicts = 0;
  std::uint64_t step_aborts = 0;
  bool interleaved = false;  ///< some step of agent 2 began before agent 1
                             ///< finished (and vice versa)
};

FleetRun run_fleet(std::uint32_t concurrency, const std::string& step,
                   int agents, int steps, std::uint64_t seed = 7) {
  agent::PlatformConfig cfg;
  cfg.node_concurrency = concurrency;
  // These tests pin exact serialized makespans, so every commit flushes at
  // once (window 1); batching has its own suites (keylock_test, ship_test).
  cfg.group_commit_window = 1;
  TestWorld w(cfg, /*node_count=*/1, seed);
  harness::register_workload(w.platform);
  w.publish(1, "info", serial::Value("x"));
  w.open_account(1, "a0", 0);

  std::vector<AgentId> ids;
  for (int a = 0; a < agents; ++a) {
    auto r = w.platform.launch(fleet_agent(step, steps));
    EXPECT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }

  FleetRun run;
  if (!w.platform.run_until_all_finished(ids)) return run;
  run.all_done = true;
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    run.all_done = run.all_done && out.state == AgentOutcome::State::done;
    run.makespan_us = std::max(run.makespan_us, out.finished_at);
    if (out.state == AgentOutcome::State::done) {
      auto fin = w.platform.decode(out.final_agent);
      EXPECT_EQ(fin->data().weak("visits").as_int(), steps)
          << "agent " << id.value() << " ran a step more or less than once";
    }
  }
  run.lock_conflicts = w.platform.lock_conflict_aborts();
  run.step_aborts = w.platform.spans().count(EventKind::step_abort);

  // Interleaving evidence: between two step_begin events of one agent,
  // another agent's step_begin appears.
  if (ids.size() >= 2) {
    const auto begins = w.platform.spans().of_kind(EventKind::step_begin);
    for (std::size_t i = 0; i + 2 < begins.size() && !run.interleaved; ++i) {
      run.interleaved = begins[i].agent != begins[i + 1].agent &&
                        begins[i].agent == begins[i + 2].agent;
    }
  }
  return run;
}

TEST(SchedulerTest, SingleSlotSerializesLikeTheClassicRuntime) {
  const auto run = run_fleet(1, "work", 2, 6);
  ASSERT_TRUE(run.all_done);
  EXPECT_EQ(run.lock_conflicts, 0u);
  EXPECT_EQ(run.step_aborts, 0u);
  // One slot, FIFO queue: 2 agents x 6 steps x 200us service, serialized.
  EXPECT_EQ(run.makespan_us, 2u * 6u * 200u);
}

TEST(SchedulerTest, TwoAgentsInterleaveOnOneNode) {
  const auto serial = run_fleet(1, "work", 2, 6);
  const auto slotted = run_fleet(2, "work", 2, 6);
  ASSERT_TRUE(serial.all_done);
  ASSERT_TRUE(slotted.all_done);
  EXPECT_TRUE(slotted.interleaved);
  // Two slots overlap the two agents' service times fully.
  EXPECT_LT(slotted.makespan_us, serial.makespan_us);
  EXPECT_EQ(slotted.makespan_us, 6u * 200u);
  EXPECT_EQ(slotted.lock_conflicts, 0u);
}

TEST(SchedulerTest, ExtraSlotsBeyondFleetDoNotChangeAnything) {
  const auto two = run_fleet(2, "work", 2, 6);
  const auto eight = run_fleet(8, "work", 2, 6);
  ASSERT_TRUE(two.all_done);
  ASSERT_TRUE(eight.all_done);
  EXPECT_EQ(two.makespan_us, eight.makespan_us);
}

TEST(SchedulerTest, LockConflictAbortsAndRetries) {
  // Every "bank_hot" step writes the same account, so two slots must
  // conflict; the loser aborts, backs off, retries, and both agents still
  // complete with every step executed exactly once.
  const auto run = run_fleet(2, "bank_hot", 2, 4);
  ASSERT_TRUE(run.all_done);
  EXPECT_GT(run.lock_conflicts, 0u);
  EXPECT_GT(run.step_aborts, 0u);

  // Serial execution of the same fleet never conflicts.
  const auto serial = run_fleet(1, "bank_hot", 2, 4);
  ASSERT_TRUE(serial.all_done);
  EXPECT_EQ(serial.lock_conflicts, 0u);
}

TEST(SchedulerTest, CrashDuringInFlightSlotsLeavesQueueRestartable) {
  // Two agents mid-flight in two slots when the node crashes: the epoch
  // bump invalidates both slots, their records stay queued, and recovery
  // re-runs them — no step lost, none duplicated.
  agent::PlatformConfig cfg;
  cfg.node_concurrency = 2;
  TestWorld w(cfg, /*node_count=*/1, 7);
  harness::register_workload(w.platform);
  w.open_account(1, "acct", 10'000);

  std::vector<AgentId> ids;
  for (int a = 0; a < 2; ++a) {
    auto r = w.platform.launch(fleet_agent("withdraw", 3));
    ASSERT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }
  // Both slots are busy from t=0 (one executing, one conflicting/backing
  // off); crash in the middle of the first service interval and again
  // later to also hit a retry window.
  w.faults.crash_at(TestWorld::n(1), /*at=*/100, /*downtime=*/10'000);
  w.faults.crash_at(TestWorld::n(1), /*at=*/60'000, /*downtime=*/10'000);

  ASSERT_TRUE(w.platform.run_until_all_finished(ids));
  std::int64_t total_cash = 0;
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    ASSERT_EQ(out.state, AgentOutcome::State::done);
    auto fin = w.platform.decode(out.final_agent);
    EXPECT_EQ(fin->data().weak("visits").as_int(), 3);
    EXPECT_EQ(fin->data().weak("cash").as_int(), 300);
    total_cash += fin->data().weak("cash").as_int();
  }
  // Exactly-once despite crash + conflicts: the committed balance matches
  // the cash the agents carried away, to the cent.
  const auto& bank = w.committed(1, "bank");
  EXPECT_EQ(bank.at("accounts").at("acct").at("balance").as_int(),
            10'000 - total_cash);
  EXPECT_GE(w.platform.spans().count(EventKind::crash), 1u);
}

TEST(SchedulerTest, ConcurrencyOneReproducesSeedShapes) {
  // node_concurrency = 1 must be indistinguishable from the classic
  // one-record-at-a-time runtime: same seed -> same timings.
  const auto a = run_fleet(1, "collect", 3, 4, /*seed=*/11);
  const auto b = run_fleet(1, "collect", 3, 4, /*seed=*/11);
  ASSERT_TRUE(a.all_done);
  ASSERT_TRUE(b.all_done);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.step_aborts, b.step_aborts);
}

TEST(ParallelWorldsTest, ReplicateSeedsAreDistinct) {
  const auto seeds = expt::replicate_seeds(7, 64);
  ASSERT_EQ(seeds.size(), 64u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
}

TEST(ParallelWorldsTest, SeedReplicatedWorldsAreReproducibleAcrossThreads) {
  // >= 8 worlds, each a full slotted-fleet simulation, run via the
  // parallel driver with different thread counts and sequentially: the
  // per-seed metrics must be bit-identical regardless of scheduling.
  const auto seeds = expt::replicate_seeds(42, 8);
  auto job = [&seeds](std::size_t i) {
    const auto run = run_fleet(4, "bank_hot", 4, 3, seeds[i]);
    EXPECT_TRUE(run.all_done);
    return std::pair<sim::TimeUs, std::uint64_t>(run.makespan_us,
                                                 run.step_aborts);
  };
  const auto parallel_a = expt::run_worlds(seeds.size(), job, 8);
  const auto parallel_b = expt::run_worlds(seeds.size(), job, 3);
  const auto sequential = expt::run_worlds(seeds.size(), job, 1);
  EXPECT_EQ(parallel_a, sequential);
  EXPECT_EQ(parallel_b, sequential);
}

}  // namespace
}  // namespace mar
