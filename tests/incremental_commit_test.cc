// Incremental durability: delta savepoint commits, append-only agent
// records, and recovery from base-image + deltas.
//
// Covers the invariants the O(delta) commit path rests on:
//   * a delta applied to the predecessor state reconstructs the agent
//     BIT-IDENTICALLY to a full capture of the live object;
//   * an execution under incremental commits is observably identical to
//     one under full-image commits (outcomes, final images) while writing
//     far fewer bytes to stable storage;
//   * crash recovery re-reads the agent from base + appended deltas and
//     the completed execution matches the full-image path bit for bit;
//   * rollback, migration and compaction fall back to full images
//     correctly.
#include <gtest/gtest.h>

#include <memory>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "harness/agents.h"
#include "harness/world.h"

namespace mar {
namespace {

using agent::Agent;
using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using harness::TestWorld;
using harness::WorkloadAgent;

// ---------------------------------------------------------------------------
// Unit level: encode_agent_delta / apply_agent_delta / decode_agent_segments
// ---------------------------------------------------------------------------

std::unique_ptr<WorkloadAgent> sample_agent() {
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int i = 0; i < 4; ++i) tour.step("spend_logged", TestWorld::n(1));
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  ag->set_id(AgentId(7));
  ag->set_run_state(Agent::RunState::running);
  ag->set_position(*ag->itinerary().first_step());
  return ag;
}

agent::AgentTypeRegistry workload_registry() {
  agent::AgentTypeRegistry reg;
  reg.register_type<WorkloadAgent>("workload");
  return reg;
}

/// Simulate one committed step's worth of mutation: dirty slots + appended
/// log entries.
void mutate_one_step(Agent& ag, int i) {
  ag.data().weak("visits") = ag.data().weak("visits").as_int() + 1;
  ag.data().weak("cash") = ag.data().weak("cash").as_int() - 1;
  ag.log().push(rollback::BeginOfStepEntry{NodeId(1), "spend_logged"});
  serial::Value params = serial::Value::empty_map();
  params.set("slot", "cash");
  params.set("amount", 1);
  params.set("i", i);
  ag.log().push(rollback::OperationEntry{rollback::OpEntryKind::agent,
                                         "comp.counter_add", std::move(params),
                                         NodeId::invalid(), std::string{}});
  rollback::EndOfStepEntry eos;
  eos.node = NodeId(1);
  ag.log().push(std::move(eos));
}

TEST(AgentDeltaTest, DeltaReconstructsBitIdentically) {
  auto reg = workload_registry();
  auto live = sample_agent();
  live->mark_commit_baseline();
  const serial::Bytes base = encode_agent(*live);

  // Reconstruct alongside the live mutation, one delta per "step".
  std::vector<serial::Bytes> segments{base};
  for (int i = 0; i < 5; ++i) {
    mutate_one_step(*live, i);
    ASSERT_TRUE(live->delta_ready());
    segments.push_back(encode_agent_delta(*live));
    live->mark_commit_baseline();
    auto rebuilt = decode_agent_segments(reg, segments);
    EXPECT_EQ(encode_agent(*rebuilt), encode_agent(*live))
        << "divergence after delta " << i;
  }
  // The delta chain is small compared to the full image it replaces.
  EXPECT_LT(segments.back().size(), encode_agent(*live).size() / 2);
}

TEST(AgentDeltaTest, PopsAndDiscardForceFullImage) {
  auto live = sample_agent();
  mutate_one_step(*live, 0);
  live->mark_commit_baseline();
  EXPECT_TRUE(live->delta_ready());
  (void)live->log().pop();
  EXPECT_FALSE(live->delta_ready());
  live->mark_commit_baseline();
  EXPECT_TRUE(live->delta_ready());
  live->log().clear();
  EXPECT_FALSE(live->delta_ready());
}

TEST(AgentDeltaTest, WholeMapReplacementTravelsInDelta) {
  auto reg = workload_registry();
  auto live = sample_agent();
  live->mark_commit_baseline();
  std::vector<serial::Bytes> segments{encode_agent(*live)};
  // restore_strong marks the strong side all-dirty; the delta must carry
  // the full map and still reconstruct exactly.
  serial::Value strong = serial::Value::empty_map();
  strong.set("results", serial::Value::empty_list());
  strong.set("extra", 42);
  live->data().restore_strong(strong);
  mutate_one_step(*live, 1);
  segments.push_back(encode_agent_delta(*live));
  live->mark_commit_baseline();
  auto rebuilt = decode_agent_segments(reg, segments);
  EXPECT_EQ(encode_agent(*rebuilt), encode_agent(*live));
}

// ---------------------------------------------------------------------------
// Platform level: incremental vs full-image executions
// ---------------------------------------------------------------------------

struct RunOutcome {
  serial::Bytes final_agent;
  std::uint64_t stable_bytes = 0;
  bool done = false;
};

RunOutcome run_steady(bool incremental, int steps, bool crash_mid_run,
                      std::uint32_t compaction_interval = 32) {
  PlatformConfig cfg;
  cfg.incremental_commit = incremental;
  cfg.compaction_interval_steps = compaction_interval;
  cfg.discard_log_on_top_level = false;
  TestWorld w(cfg, /*node_count=*/1, /*seed=*/9);
  harness::register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int s = 0; s < steps; ++s) tour.step("spend_logged", TestWorld::n(1));
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  if (crash_mid_run) {
    // Two crashes while the agent is mid-life (each spend_logged step
    // charges one 200us service unit): recovery must reconstruct the
    // agent from base + appended deltas and keep exactly-once intact.
    w.faults.crash_at(TestWorld::n(1), /*at=*/300, /*downtime=*/5'000);
    w.faults.crash_at(TestWorld::n(1), /*at=*/7'500, /*downtime=*/5'000);
  }
  auto id = w.platform.launch(std::move(ag));
  EXPECT_TRUE(id.is_ok());
  EXPECT_TRUE(w.platform.run_until_finished(id.value()));
  RunOutcome out;
  const auto& o = w.platform.outcome(id.value());
  out.done = o.state == AgentOutcome::State::done;
  out.final_agent = o.final_agent;
  out.stable_bytes =
      w.platform.node(TestWorld::n(1)).storage().stats().bytes_written;
  return out;
}

TEST(IncrementalCommitTest, MatchesFullImageExecutionBitForBit) {
  const auto full = run_steady(false, 24, false);
  const auto incr = run_steady(true, 24, false);
  ASSERT_TRUE(full.done);
  ASSERT_TRUE(incr.done);
  // Same terminal agent, byte for byte — the commit path is a pure
  // durability optimization, invisible to execution semantics.
  EXPECT_EQ(incr.final_agent, full.final_agent);
  // And it writes far less: per-step cost is O(delta), not O(log size).
  EXPECT_LT(incr.stable_bytes, full.stable_bytes / 2);
}

TEST(IncrementalCommitTest, CrashRecoveryFromDeltasMatchesFullImagePath) {
  const auto full = run_steady(false, 24, /*crash=*/true);
  const auto incr = run_steady(true, 24, /*crash=*/true);
  ASSERT_TRUE(full.done);
  ASSERT_TRUE(incr.done);
  EXPECT_EQ(incr.final_agent, full.final_agent);
}

TEST(IncrementalCommitTest, AggressiveCompactionStaysCorrect) {
  // Compact after every delta: exercises the reset/append interleaving.
  const auto full = run_steady(false, 16, false);
  const auto incr = run_steady(true, 16, false, /*compaction_interval=*/1);
  ASSERT_TRUE(full.done);
  ASSERT_TRUE(incr.done);
  EXPECT_EQ(incr.final_agent, full.final_agent);
}

TEST(IncrementalCommitTest, RecordAreaIsEmptyAfterTermination) {
  PlatformConfig cfg;
  cfg.incremental_commit = true;
  cfg.discard_log_on_top_level = false;
  TestWorld w(cfg, /*node_count=*/1, /*seed=*/9);
  harness::register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int s = 0; s < 8; ++s) tour.step("spend_logged", TestWorld::n(1));
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  auto& storage = w.platform.node(TestWorld::n(1)).storage();
  EXPECT_FALSE(storage.has_record(
      agent::NodeRuntime::agent_image_key(id.value())));
  EXPECT_GT(storage.stats().record_appends, 0u);
}

TEST(IncrementalCommitTest, MigrationAndRollbackAcrossIncrementalCommits) {
  // Local incremental commits, then a migration, then a rollback across
  // the whole history: the full-image fallbacks and the record-area
  // cleanup must compose. Runs in both modes and compares outcomes.
  auto run = [](bool incremental) {
    PlatformConfig cfg;
    cfg.incremental_commit = incremental;
    TestWorld w(cfg, /*node_count=*/2, /*seed=*/13);
    harness::register_workload(w.platform);
    auto ag = std::make_unique<WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < 6; ++s) tour.step("spend_logged", TestWorld::n(1));
    tour.step("spend_logged", TestWorld::n(2));  // migrate
    tour.step("noop", TestWorld::n(2));
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    // Roll the current sub-itinerary back when the post-migration noop
    // runs (visit 8), then re-execute to completion.
    ag->set_trigger("noop", 8, "sub");
    auto id = w.platform.launch(std::move(ag));
    EXPECT_TRUE(id.is_ok());
    EXPECT_TRUE(w.platform.run_until_finished(id.value()));
    const auto& o = w.platform.outcome(id.value());
    EXPECT_EQ(o.state, AgentOutcome::State::done);
    EXPECT_FALSE(w.platform.node(TestWorld::n(1)).storage().has_record(
        agent::NodeRuntime::agent_image_key(id.value())));
    // The rollback consumed the resident agents along with their records.
    w.sim.run();
    for (const int n : {1, 2}) {
      EXPECT_EQ(
          w.platform.node(TestWorld::n(n)).scheduler().resident_agents(),
          0u);
    }
    return o.final_agent;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace mar
