// End-to-end observability (src/util/metrics.h, src/util/span.h):
// log-bucketed histogram boundaries and quantiles, deterministic
// metrics snapshots across expt::run_worlds thread counts, causal hop
// tracing across a 3-node migration, the crash flight recorder, and the
// bounded event rings with exact per-kind counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "expt/parallel_worlds.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "util/metrics.h"
#include "util/span.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using harness::TestWorld;
using harness::WorkloadAgent;
using harness::register_workload;

// --- Histogram bucket boundaries and quantiles -------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 holds exactly 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(255);
  h.record(256);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 255 + 256);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket(3), 1u);  // {4}
  EXPECT_EQ(h.bucket(8), 1u);  // [128, 256) -> 255
  EXPECT_EQ(h.bucket(9), 1u);  // [256, 512) -> 256
  for (int i : {4, 5, 6, 7, 10, 63}) {
    EXPECT_EQ(h.bucket(i), 0u) << "bucket " << i;
  }
}

TEST(HistogramTest, PercentilesAreMonotoneAndBucketBounded) {
  Histogram h;
  // 90 fast ops at ~100us, 10 slow at ~100ms: p50 must land in the
  // fast bucket, p99 in the slow one, and quantiles must be monotone.
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(100'000);
  HistogramSnapshot snap;
  snap.count = h.count();
  snap.sum = h.sum();
  for (int i = 0; i < Histogram::kBuckets; ++i) snap.buckets[i] = h.bucket(i);
  const auto p50 = snap.percentile(0.50);
  const auto p95 = snap.percentile(0.95);
  const auto p99 = snap.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // 100 has bit_width 7 -> bucket [64, 128); 100000 -> [65536, 131072).
  EXPECT_GE(p50, 64u);
  EXPECT_LT(p50, 128u);
  EXPECT_GE(p99, 65'536u);
  EXPECT_LT(p99, 131'072u);
}

TEST(HistogramTest, SnapshotMergeSumsBucketwise) {
  Histogram a;
  Histogram b;
  a.record(5);
  a.record(9);
  b.record(5);
  auto mk = [](const Histogram& h) {
    HistogramSnapshot s;
    s.count = h.count();
    s.sum = h.sum();
    for (int i = 0; i < Histogram::kBuckets; ++i) s.buckets[i] = h.bucket(i);
    return s;
  };
  auto sa = mk(a);
  sa.merge(mk(b));
  EXPECT_EQ(sa.count, 3u);
  EXPECT_EQ(sa.sum, 19u);
  EXPECT_EQ(sa.buckets[3], 2u);  // [4,8): both 5s
  EXPECT_EQ(sa.buckets[4], 1u);  // [8,16): the 9
}

// --- Snapshot determinism across run_worlds thread counts --------------

/// `hops` migrating steps over `node_count` nodes after one warm-up.
Itinerary ring(int hops, int node_count) {
  Itinerary sub;
  sub.step("spend_logged", TestWorld::n(1));
  for (int h = 0; h < hops; ++h) {
    sub.step("spend_logged", TestWorld::n((h % node_count) + 1));
  }
  Itinerary main_it;
  main_it.sub(std::move(sub));
  return main_it;
}

std::string snapshot_json_for_seed(std::uint64_t seed) {
  PlatformConfig cfg;
  cfg.node_concurrency = 2;
  TestWorld w(cfg, /*node_count=*/3, seed);
  register_workload(w.platform);
  std::vector<AgentId> ids;
  for (int a = 0; a < 3; ++a) {
    auto ag = std::make_unique<WorkloadAgent>();
    ag->itinerary() = ring(6, 3);
    ag->set_config("param_bytes", 48);
    auto r = w.platform.launch(std::move(ag));
    EXPECT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }
  EXPECT_TRUE(w.platform.run_until_all_finished(ids));
  // Drain coordinator-side commit callbacks so late histogram records
  // land before the snapshot (the last outcome arrives before the
  // penultimate hop's commit callback fires).
  w.sim.run_until(w.sim.now() + 1'000'000);
  return w.platform.metrics_snapshot().to_json();
}

TEST(MetricsSnapshotTest, DeterministicAcrossWorldThreadCounts) {
  const auto seeds = expt::replicate_seeds(99, 6);
  auto job = [&seeds](std::size_t i) {
    return snapshot_json_for_seed(seeds[i]);
  };
  const auto t1 = expt::run_worlds(seeds.size(), job, 1);
  const auto t3 = expt::run_worlds(seeds.size(), job, 3);
  const auto t8 = expt::run_worlds(seeds.size(), job, 8);
  EXPECT_EQ(t1, t3);
  EXPECT_EQ(t1, t8);
  // The snapshot is non-trivial: the registry names the absorbed stats
  // structs and the latency histograms.
  EXPECT_NE(t1[0].find("\"storage.bytes_written\""), std::string::npos);
  EXPECT_NE(t1[0].find("\"ship.delta_ships\""), std::string::npos);
  EXPECT_NE(t1[0].find("\"tx.coordinator_syncs\""), std::string::npos);
  EXPECT_NE(t1[0].find("\"hop.latency_us\""), std::string::npos);
  EXPECT_NE(t1[0].find("\"step.latency_us\""), std::string::npos);
}

// --- Causal hop tracing across a 3-node migration ----------------------

TEST(TraceTest, HopChainSpansThreeNodesUnderOneTraceId) {
  PlatformConfig cfg;
  TestWorld w(cfg, /*node_count=*/3, /*seed=*/21);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ring(5, 3);  // N1, then N1 N2 N3 N1 N2
  ag->set_config("param_bytes", 48);
  auto r = w.platform.launch(std::move(ag));
  ASSERT_TRUE(r.is_ok());
  const auto id = r.value();
  ASSERT_TRUE(w.platform.run_until_finished(id));
  EXPECT_EQ(w.platform.outcome(id).state, AgentOutcome::State::done);
  w.sim.run_until(w.sim.now() + 1'000'000);  // close the final hop spans

  auto hops = w.platform.spans().of_kind(SpanKind::hop);
  std::erase_if(hops, [&](const Span& s) { return s.trace_id != id.value(); });
  ASSERT_EQ(hops.size(), 6u);  // one hop span per executed step
  std::sort(hops.begin(), hops.end(), [](const Span& a, const Span& b) {
    return a.begin_us < b.begin_us;
  });
  // Exactly one root (the launch hop), every later hop parented to its
  // predecessor's span id — the causal chain crosses node boundaries.
  EXPECT_EQ(hops[0].parent, 0u);
  std::vector<std::uint32_t> visited;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i].trace_id, id.value());
    EXPECT_EQ(hops[i].agent, id.value());
    if (i > 0) {
      EXPECT_EQ(hops[i].parent, hops[i - 1].span_id)
          << "hop " << i << " breaks the causal chain";
    }
    visited.push_back(hops[i].node);
  }
  const std::vector<std::uint32_t> want = {1, 1, 2, 3, 1, 2};
  EXPECT_EQ(visited, want);

  // Phase spans tile each hop exactly: queue_wait + lock_wait +
  // step_exec + commit_flush == hop duration (no contention here, so
  // there are no gaps to forgive).
  const auto all = w.platform.spans().spans();
  for (const auto& hop : hops) {
    std::uint64_t covered = 0;
    bool saw_exec = false;
    for (const auto& s : all) {
      if (s.parent != hop.span_id) continue;
      switch (s.kind) {
        case SpanKind::queue_wait:
        case SpanKind::lock_wait:
        case SpanKind::step_exec:
        case SpanKind::commit_flush:
          EXPECT_GE(s.begin_us, hop.begin_us);
          EXPECT_LE(s.end_us, hop.end_us);
          covered += s.end_us - s.begin_us;
          saw_exec = saw_exec || s.kind == SpanKind::step_exec;
          break;
        default:
          break;  // ship detail nests under the *next* hop's parent
      }
    }
    EXPECT_TRUE(saw_exec) << "hop span " << hop.span_id;
    EXPECT_EQ(covered, hop.end_us - hop.begin_us)
        << "hop span " << hop.span_id << " phases do not tile it";
  }

  // Migrations leave wire spans whose note records the payload size.
  const auto wires = w.platform.spans().of_kind(SpanKind::wire);
  EXPECT_GE(wires.size(), 4u);  // one per inter-node move
  for (const auto& s : wires) {
    EXPECT_EQ(s.trace_id, id.value());
    EXPECT_NE(s.note().find("bytes"), std::string::npos);
  }
}

TEST(TraceTest, ContendedFleetEmitsLockWaitSpansOnResumedHops) {
  // Slots contending on one bank account abort and retry: the aborted
  // attempt stashes its open hop span and the re-claim must resume the
  // SAME span (not open a second root) and emit a lock_wait child.
  PlatformConfig cfg;
  cfg.node_concurrency = 4;
  TestWorld w(cfg, /*node_count=*/1, /*seed=*/3);
  register_workload(w.platform);
  w.open_account(1, "a0", 0);
  std::vector<AgentId> ids;
  for (int a = 0; a < 8; ++a) {
    auto ag = std::make_unique<WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < 6; ++s) tour.step("bank_hot", TestWorld::n(1));
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    serial::Value accounts = serial::Value::empty_list();
    accounts.push_back(serial::Value(std::int64_t{0}));
    ag->set_config_value("hot_accounts", std::move(accounts));
    auto r = w.platform.launch(std::move(ag));
    ASSERT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }
  ASSERT_TRUE(w.platform.run_until_all_finished(ids));
  w.sim.run_until(w.sim.now() + 1'000'000);
  ASSERT_GT(w.platform.lock_conflict_aborts(), 0u);

  const auto lock_waits = w.platform.spans().of_kind(SpanKind::lock_wait);
  ASSERT_FALSE(lock_waits.empty());
  const auto hops = w.platform.spans().spans();
  for (const auto& lw : lock_waits) {
    // Every lock_wait parents to a hop span of the same trace.
    bool found = false;
    for (const auto& h : hops) {
      if (h.kind != SpanKind::hop || h.span_id != lw.parent) continue;
      EXPECT_EQ(h.trace_id, lw.trace_id);
      found = true;
    }
    EXPECT_TRUE(found) << "lock_wait span " << lw.span_id
                       << " has no hop parent";
  }
  // One hop span per executed step per agent — a resumed claim must not
  // have opened a duplicate root.
  for (const auto id : ids) {
    std::size_t n = 0;
    for (const auto& h : hops) {
      if (h.kind == SpanKind::hop && h.trace_id == id.value()) ++n;
    }
    EXPECT_EQ(n, 6u) << "agent " << id.value();
  }
}

TEST(TraceTest, DisablingTracingRecordsNoSpans) {
  PlatformConfig cfg;
  cfg.span_tracing = false;
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/5);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ring(3, 2);
  auto r = w.platform.launch(std::move(ag));
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(r.value()));
  w.sim.run_until(w.sim.now() + 1'000'000);
  EXPECT_EQ(w.platform.spans().size(), 0u);
}

// --- Crash flight recorder ---------------------------------------------

TEST(FlightRecorderTest, CrashDumpsNodeRingWithHeader) {
  const std::string path =
      testing::TempDir() + "mar_observability_flight.jsonl";
  std::remove(path.c_str());

  PlatformConfig cfg;
  cfg.flight_dump_path = path;
  cfg.discard_log_on_top_level = false;
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/31);
  register_workload(w.platform);
  // Crash node 2 early in the run (it recovers 10ms later); the runtime
  // must append node 2's recent span ring to the dump path.
  w.faults.crash_at(TestWorld::n(2), 2'000, 10'000);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ring(8, 2);
  ag->set_config("param_bytes", 64);
  auto r = w.platform.launch(std::move(ag));
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(r.value()));
  EXPECT_EQ(w.platform.outcome(r.value()).state, AgentOutcome::State::done);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_FALSE(lines.empty());
  // Header line first: names the event, the node and the reason.
  EXPECT_NE(lines[0].find("\"event\": \"flight_dump\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"node\": 2"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"reason\": \"crash\""), std::string::npos)
      << lines[0];
  // Span lines follow — each a JSONL span with the standard fields.
  bool saw_span = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].find("\"event\"") != std::string::npos) continue;
    EXPECT_NE(lines[i].find("\"span_id\""), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("\"kind\""), std::string::npos) << lines[i];
    saw_span = true;
  }
  EXPECT_TRUE(saw_span) << "flight dump has a header but no spans";
  // The runtime's crash handler records the crash before dumping, so the
  // crash instant closes the dump; the recovery is counted once too.
  EXPECT_NE(lines.back().find("\"name\": \"crash\""), std::string::npos)
      << lines.back();
  EXPECT_EQ(w.platform.spans().count(EventKind::crash, 2), 1u);
  EXPECT_EQ(w.platform.spans().count(EventKind::recover, 2), 1u);
  EXPECT_EQ(w.platform.spans().count(EventKind::crash), 1u);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, RingCapacityBoundsRetainedSpans) {
  PlatformConfig cfg;
  cfg.flight_recorder_spans = 16;
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/9);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ring(10, 2);
  auto r = w.platform.launch(std::move(ag));
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(r.value()));
  w.sim.run_until(w.sim.now() + 1'000'000);
  // 11 hops produce > 16 spans per node overall; the per-node rings
  // must stay bounded at the configured capacity.
  EXPECT_LE(w.platform.spans().size(), 2u * 16u);
  EXPECT_GT(w.platform.spans().size(), 0u);
}

TEST(FlightRecorderTest, LongRunKeepsRingsBoundedAndCountsExact) {
  // 20k hops through 2 nodes with 32-record rings: the rings wrap
  // hundreds of times, yet the per-kind counts stay exact and memory
  // stays at nodes x capacity records.
  constexpr int kNodes = 2;
  constexpr std::size_t kCapacity = 32;
  constexpr int kAgents = 40;
  constexpr int kSubs = 50;
  constexpr int kSubSteps = 10;
  PlatformConfig cfg;
  cfg.flight_recorder_spans = kCapacity;
  cfg.node_concurrency = 4;
  TestWorld w(cfg, kNodes, /*seed=*/13);
  register_workload(w.platform);
  std::vector<AgentId> ids;
  for (int a = 0; a < kAgents; ++a) {
    Itinerary main_it;
    for (int s = 0; s < kSubs; ++s) {
      // Each top-level sub discards the log on completion, so the agent
      // stays small; alternating nodes mixes local steps and migrations.
      Itinerary sub;
      for (int k = 0; k < kSubSteps; ++k) {
        sub.step("noop", TestWorld::n((a + s) % kNodes + 1));
      }
      main_it.sub(std::move(sub));
    }
    auto ag = std::make_unique<WorkloadAgent>();
    ag->itinerary() = std::move(main_it);
    auto r = w.platform.launch(std::move(ag));
    ASSERT_TRUE(r.is_ok());
    ids.push_back(r.value());
  }
  ASSERT_TRUE(w.platform.run_until_all_finished(ids));
  // Drain the coordinator-side commit callbacks of the last migrations.
  w.sim.run_while_pending([] { return false; });
  for (const auto id : ids) {
    EXPECT_EQ(w.platform.outcome(id).state, AgentOutcome::State::done);
  }

  const auto& sink = w.platform.spans();
  const std::uint64_t hops = std::uint64_t{kAgents} * kSubs * kSubSteps;
  EXPECT_LE(sink.size(), kNodes * kCapacity);
  EXPECT_EQ(sink.count(EventKind::step_commit), hops);
  EXPECT_EQ(sink.count(EventKind::step_begin), hops);  // no aborts here
  EXPECT_GT(sink.count(EventKind::step_commit), 100 * kNodes * kCapacity);
  std::uint64_t per_node = 0;
  for (int n = 1; n <= kNodes; ++n) {
    per_node +=
        sink.count(EventKind::step_commit, static_cast<std::uint32_t>(n));
  }
  EXPECT_EQ(per_node, hops);
  EXPECT_EQ(w.platform.metrics_snapshot().scalars.at("event.step_commit"),
            hops);
}

}  // namespace
}  // namespace mar
