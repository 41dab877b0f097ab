// Threaded-core stress: the suite the tsan CI job exists for.
//
// Real OS threads enter this codebase in exactly one place — the
// expt::run_worlds pool — plus the supported cross-thread observation
// surface: relaxed-atomic sampling of the stats meters (storage, ship, tx)
// and of the event sink's per-kind counts. This test hammers both at once
// under contended worlds (slotted scheduler, per-key locks, group-commit
// flush timers, convoy shipping) so `-DMAR_SANITIZE=thread` sweeps the
// whole threaded surface in one binary:
//
//   * many independent worlds on the pool, with a cross-thread-count
//     determinism check (8 vs 3 vs 1 threads must be bit-identical);
//   * a monitor thread live-polling a running world's storage and ship
//     meters — the scenario that raced before the counters became
//     RelaxedCounter;
//   * a monitor thread polling a running world's live step_commit count
//     while the world records into its span rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "expt/parallel_worlds.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "util/span.h"

// TSan runs ~10x slower; shrink the sweep so the sanitizer job stays fast.
#if defined(__SANITIZE_THREAD__)
#define MAR_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MAR_TSAN_BUILD 1
#endif
#endif

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;

#ifdef MAR_TSAN_BUILD
constexpr std::size_t kWorlds = 8;
#else
constexpr std::size_t kWorlds = 16;
#endif
constexpr int kNodes = 3;
constexpr int kFleet = 6;
constexpr int kSteps = 9;  // three tours of the three nodes
constexpr int kAccounts = 4;

agent::PlatformConfig contended_config() {
  agent::PlatformConfig cfg;  // per_key locking is the default
  cfg.node_concurrency = 4;
  cfg.group_commit_window = 4;
  cfg.ship_convoy_window = 4;
  cfg.lock_audit = true;  // armed in every build, not just debug
  return cfg;
}

/// Deterministic per-seed fingerprint of one contended world run.
struct WorldResult {
  int done = 0;
  std::int64_t balance_sum = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t sync_batches = 0;
  std::uint64_t convoys_sent = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t step_commits = 0;
  std::uint64_t step_aborts = 0;

  friend bool operator==(const WorldResult&, const WorldResult&) = default;
};

/// Launch the contended fleet: every agent tours nodes 1..kNodes and
/// deposits into skewed hot accounts, so slots collide on keys, group
/// commits batch, and every migration rides a convoy.
std::vector<AgentId> launch_fleet(TestWorld& w, std::uint64_t seed) {
  harness::register_workload(w.platform);
  for (int n = 1; n <= kNodes; ++n) {
    for (int a = 0; a < kAccounts; ++a) {
      w.open_account(n, "a" + std::to_string(a), 0);
    }
  }
  Rng rng(seed ^ 0xabcdef12345ULL);
  std::vector<AgentId> ids;
  for (int a = 0; a < kFleet; ++a) {
    auto ag = std::make_unique<harness::WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < kSteps; ++s) {
      tour.step("bank_hot", TestWorld::n(1 + s % kNodes));
    }
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    serial::Value accounts = serial::Value::empty_list();
    for (int s = 0; s < kSteps; ++s) {
      const auto acct = rng.next_bool(0.5)
                            ? std::int64_t{0}
                            : static_cast<std::int64_t>(
                                  rng.next_below(kAccounts));
      accounts.push_back(serial::Value(acct));
    }
    ag->set_config_value("hot_accounts", std::move(accounts));
    auto r = w.platform.launch(std::move(ag));
    if (r.is_ok()) ids.push_back(r.value());
  }
  return ids;
}

WorldResult fingerprint(TestWorld& w, const std::vector<AgentId>& ids) {
  WorldResult out;
  for (const auto id : ids) {
    if (w.platform.outcome(id).state == AgentOutcome::State::done) ++out.done;
  }
  for (int n = 1; n <= kNodes; ++n) {
    for (const auto& [name, acc] :
         w.committed(n, "bank").at("accounts").as_map()) {
      (void)name;
      out.balance_sum += acc.at("balance").as_int();
    }
    auto& rt = w.platform.node(TestWorld::n(n));
    out.bytes_written += rt.storage().stats().bytes_written;
    out.sync_batches += rt.storage().stats().sync_batches;
    out.convoys_sent += rt.shipments().stats().convoys_sent;
    out.wire_bytes += rt.shipments().stats().wire_payload_bytes;
  }
  out.step_commits = w.platform.spans().count(EventKind::step_commit);
  out.step_aborts = w.platform.spans().count(EventKind::step_abort);
  return out;
}

WorldResult run_world(std::uint64_t seed) {
  TestWorld w(contended_config(), kNodes, seed);
  auto ids = launch_fleet(w, seed);
  if (!w.platform.run_until_all_finished(ids)) return {};
  return fingerprint(w, ids);
}

/// The pool must produce bit-identical results regardless of how many OS
/// threads claim the jobs — and a fleet of contended worlds must be fully
/// correct on every one of them.
TEST(TsanStressTest, ParallelWorldsDeterministicAcrossThreadCounts) {
  const auto seeds = expt::replicate_seeds(0xfeedULL, kWorlds);
  const auto job = [&](std::size_t i) { return run_world(seeds[i]); };

  const auto r8 = expt::run_worlds(kWorlds, job, 8);
  const auto r3 = expt::run_worlds(kWorlds, job, 3);
  const auto r1 = expt::run_worlds(kWorlds, job, 1);
  ASSERT_EQ(r8.size(), kWorlds);
  for (std::size_t i = 0; i < kWorlds; ++i) {
    // Every agent finished and every deposit of 1 landed exactly once.
    EXPECT_EQ(r8[i].done, kFleet) << "world " << i;
    EXPECT_EQ(r8[i].balance_sum, std::int64_t{kFleet} * kSteps)
        << "world " << i;
    EXPECT_GT(r8[i].convoys_sent, 0u) << "world " << i;
    EXPECT_GT(r8[i].step_commits, 0u) << "world " << i;
    EXPECT_EQ(r8[i], r3[i]) << "world " << i << ": 8 vs 3 threads";
    EXPECT_EQ(r8[i], r1[i]) << "world " << i << ": 8 vs 1 thread";
  }
}

/// Live monitor: a second thread samples a RUNNING world's storage and
/// ship meters plus its event counts. Before StorageStats/ShipStats became
/// relaxed atomics this was a data race on every counter bump; now it is
/// the supported observation surface.
TEST(TsanStressTest, MonitorThreadSamplesRunningWorld) {
  TestWorld w(contended_config(), kNodes, /*seed=*/0x5eedULL);
  auto ids = launch_fleet(w, 0x5eedULL);

  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::uint64_t last_bytes = 0;
  std::uint64_t last_events = 0;
  std::uint64_t last_coord_syncs = 0;
  std::uint64_t last_depth_max = 0;
  bool monotonic = true;
  std::thread monitor([&] {
    // do-while: a world that finishes before this thread is first
    // scheduled must still be sampled once.
    do {
      std::uint64_t bytes = 0;
      std::uint64_t coord_syncs = 0;
      std::uint64_t depth_max = 0;
      for (int n = 1; n <= kNodes; ++n) {
        auto& rt = w.platform.node(TestWorld::n(n));
        bytes += rt.storage().stats().bytes_written;
        bytes += rt.storage().stats().ship_bytes_received;
        (void)static_cast<std::uint64_t>(
            rt.shipments().stats().wire_payload_bytes);
        // Commit-pipeline gauges: the flush timers and decision queues
        // are live while the monitor reads. inflight_tx is a gauge (it
        // moves both ways); the sync counter and the depth high-water
        // mark only ever grow.
        (void)static_cast<std::uint64_t>(rt.txm().stats().inflight_tx.load());
        coord_syncs += rt.txm().stats().coordinator_syncs.load();
        depth_max = std::max<std::uint64_t>(
            depth_max, rt.txm().stats().pipeline_depth_max.load());
      }
      const auto events = w.platform.spans().count(EventKind::step_begin);
      // Meters only ever move forward while the world runs.
      if (bytes < last_bytes || events < last_events ||
          coord_syncs < last_coord_syncs || depth_max < last_depth_max) {
        monotonic = false;
      }
      last_bytes = bytes;
      last_events = events;
      last_coord_syncs = coord_syncs;
      last_depth_max = depth_max;
      ++polls;
      std::this_thread::yield();
    } while (!done.load(std::memory_order_acquire));
  });

  const bool finished = w.platform.run_until_all_finished(ids);
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_TRUE(finished);
  EXPECT_TRUE(monotonic);
  EXPECT_GT(polls, 0u);
  // A final (post-join) read agrees with the world's own view.
  std::uint64_t final_bytes = 0;
  for (int n = 1; n <= kNodes; ++n) {
    auto& rt = w.platform.node(TestWorld::n(n));
    final_bytes += rt.storage().stats().bytes_written;
    final_bytes += rt.storage().stats().ship_bytes_received;
  }
  EXPECT_GE(final_bytes, last_bytes);
  EXPECT_GT(final_bytes, 0u);
}

/// The event counts are the sink's cross-thread surface: the world thread
/// records into its (unguarded) span rings and bumps the per-kind
/// counters while this thread polls the live step_commit total, which
/// must only grow and end exact — one per committed step, however often
/// the rings wrapped.
TEST(TsanStressTest, MonitorPollsLiveEventCounts) {
  TestWorld w(contended_config(), kNodes, /*seed=*/0xabadULL);
  auto ids = launch_fleet(w, 0xabadULL);
  const SpanSink& sink = w.platform.spans();

  std::atomic<bool> done{false};
  bool finished = false;
  std::thread world([&] {
    finished = w.platform.run_until_all_finished(ids);
    // Drain: a migrating hop's coordinator-side commit callback may land
    // after the agent's last step already ran at the destination.
    w.sim.run_while_pending([] { return false; });
    done.store(true, std::memory_order_release);
  });
  std::uint64_t polls = 0;
  std::uint64_t last = 0;
  bool monotonic = true;
  do {
    const auto commits = sink.count(EventKind::step_commit);
    if (commits < last) monotonic = false;
    last = commits;
    ++polls;
    std::this_thread::yield();
  } while (!done.load(std::memory_order_acquire));
  world.join();

  EXPECT_TRUE(finished);
  EXPECT_TRUE(monotonic);
  EXPECT_GT(polls, 0u);
  const auto total = sink.count(EventKind::step_commit);
  EXPECT_GE(total, last);
  EXPECT_EQ(total, std::uint64_t{kFleet} * kSteps);
  std::uint64_t per_node = 0;
  for (int n = 1; n <= kNodes; ++n) {
    per_node +=
        sink.count(EventKind::step_commit, static_cast<std::uint32_t>(n));
  }
  EXPECT_EQ(per_node, total);
}

}  // namespace
}  // namespace mar
