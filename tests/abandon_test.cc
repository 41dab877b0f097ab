// Abandoning sub-itineraries: skip-rollback and non-vital subs (Sec. 5:
// "non vital sub-sagas ... can be realized in our model by using flexible
// itineraries"). An abandoned sub-itinerary is rolled back to its entry
// savepoint and then SKIPPED: execution resumes at the step after it.
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

/// main( SI_a(touch@1, noop@2) [vital per arg], SI_b(touch@3, noop@4) ).
std::unique_ptr<WorkloadAgent> two_subs_agent(bool first_vital = true) {
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary a;
  a.step("touch_split", TestWorld::n(1)).step("noop", TestWorld::n(2));
  Itinerary b;
  b.step("touch_split", TestWorld::n(3)).step("noop", TestWorld::n(4));
  Itinerary main;
  main.sub(std::move(a), first_vital);
  main.sub(std::move(b));
  agent->itinerary() = std::move(main);
  return agent;
}

int touched_keys(TestWorld& w, int nodes) {
  int found = 0;
  for (int n = 1; n <= nodes; ++n) {
    for (const auto& [key, value] :
         w.committed(n, "dir").at("entries").as_map()) {
      if (key.rfind("touch-", 0) == 0) ++found;
    }
  }
  return found;
}

TEST(AbandonTest, ExplicitAbandonSkipsToNextSub) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = two_subs_agent();
  // In SI_a's noop (visit 2): abandon the current sub-itinerary.
  agent->set_trigger("noop", 2, "abandon", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  auto* wl = dynamic_cast<WorkloadAgent*>(fin.get());
  // SI_a's touch was compensated and SI_a was NOT retried: only SI_b's
  // touch survives.
  EXPECT_EQ(wl->data().weak("touches").as_int(), 1);
  EXPECT_EQ(touched_keys(w, 4), 1);
  // visits: touch (1), noop aborted, then SI_b's touch + noop = 3.
  EXPECT_EQ(wl->visits(), 3);
  EXPECT_EQ(fin->rollbacks_completed(), 1u);
}

TEST(AbandonTest, AbandonLastSubFinishesTheAgent) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary only;
  only.step("touch_split", TestWorld::n(1)).step("noop", TestWorld::n(2));
  Itinerary main;
  main.sub(std::move(only));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 2, "abandon", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(dynamic_cast<WorkloadAgent*>(fin.get())
                ->data().weak("touches").as_int(),
            0);
  EXPECT_EQ(touched_keys(w, 2), 0);
}

TEST(AbandonTest, AbandonedTopLevelSubDiscardsTheLog) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = two_subs_agent();
  agent->set_trigger("noop", 2, "abandon", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  // Abandoning SI_a (a top-level sub) carries the same semantics as
  // completing it: the whole rollback log is discarded.
  // SI_a + SI_b
  EXPECT_GE(w.platform.spans().count(EventKind::log_discard), 2u);
}

TEST(AbandonTest, PermanentFailureInNonVitalSubIsContained) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = two_subs_agent(/*first_vital=*/false);
  // SI_a's noop declares the step permanently failed; the platform must
  // abandon SI_a (non-vital) and continue with SI_b.
  agent->set_trigger("noop", 2, "fail", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(dynamic_cast<WorkloadAgent*>(fin.get())
                ->data().weak("touches").as_int(),
            1);
  EXPECT_EQ(touched_keys(w, 4), 1);
}

TEST(AbandonTest, PermanentFailureInVitalSubFailsTheAgent) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = two_subs_agent(/*first_vital=*/true);
  agent->set_trigger("noop", 2, "fail", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& out = w.platform.outcome(id.value());
  EXPECT_EQ(out.state, agent::AgentOutcome::State::failed);
  EXPECT_EQ(out.status.code(), Errc::forbidden);
  // The failed step's transaction was aborted: its step effects are gone,
  // but previously committed steps stay committed (no automatic rollback
  // for vital failures — forward recovery is the application's job).
  EXPECT_EQ(touched_keys(w, 4), 1);
}

TEST(AbandonTest, FailureInNestedNonVitalAbandonsOnlyTheInnermost) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  // SI3( touch@4, SI4(touch@1, fail-noop@2) [non-vital], SI5(touch@3) )
  Itinerary si4;
  si4.step("touch_split", TestWorld::n(1)).step("noop", TestWorld::n(2));
  Itinerary si5;
  si5.step("touch_split", TestWorld::n(3));
  Itinerary si3;
  si3.step("touch_split", TestWorld::n(4));
  si3.sub(std::move(si4), /*vital=*/false);
  si3.sub(std::move(si5));
  Itinerary main;
  main.sub(std::move(si3));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 3, "fail", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  // SI3's own touch (N4) and SI5's touch (N3) survive; SI4's touch was
  // compensated when SI4 was abandoned.
  EXPECT_EQ(dynamic_cast<WorkloadAgent*>(fin.get())
                ->data().weak("touches").as_int(),
            2);
  EXPECT_EQ(touched_keys(w, 4), 2);
}

TEST(AbandonTest, AbandonEnclosingSubViaLevelsUp) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  // main( SI3( SI4(touch@1, noop@2) ), SI6(touch@3) ): abandon SI3 (one
  // level out) from inside SI4 — both SI4's progress and SI3 are skipped;
  // execution continues with SI6.
  Itinerary si4;
  si4.step("touch_split", TestWorld::n(1)).step("noop", TestWorld::n(2));
  Itinerary si3;
  si3.sub(std::move(si4));
  Itinerary si6;
  si6.step("touch_split", TestWorld::n(3));
  Itinerary main;
  main.sub(std::move(si3));
  main.sub(std::move(si6));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 2, "abandon", 1);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(dynamic_cast<WorkloadAgent*>(fin.get())
                ->data().weak("touches").as_int(),
            1);
  EXPECT_EQ(touched_keys(w, 3), 1);
}

// The abandon path must work under every rollback strategy.
class AbandonAcrossStrategies
    : public ::testing::TestWithParam<RollbackStrategy> {};

TEST_P(AbandonAcrossStrategies, MixedStepsCompensateBeforeTheSkip) {
  PlatformConfig cfg;
  cfg.strategy = GetParam();
  TestWorld w(cfg);
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary a;
  a.step("touch_mixed", TestWorld::n(1))
      .step("touch_split", TestWorld::n(2))
      .step("noop", TestWorld::n(3));
  Itinerary b;
  b.step("touch_split", TestWorld::n(4));
  Itinerary main;
  main.sub(std::move(a));
  main.sub(std::move(b));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 3, "abandon", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state,
            agent::AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(dynamic_cast<WorkloadAgent*>(fin.get())
                ->data().weak("touches").as_int(),
            1);
  EXPECT_EQ(touched_keys(w, 4), 1);
}

INSTANTIATE_TEST_SUITE_P(Strategies, AbandonAcrossStrategies,
                         ::testing::Values(RollbackStrategy::basic,
                                           RollbackStrategy::optimized,
                                           RollbackStrategy::adaptive));

// Non-vital flags round-trip through agent serialization (they live in
// the itinerary, which migrates with the agent).
TEST(AbandonTest, VitalFlagSurvivesSerialization) {
  Itinerary inner;
  inner.step("noop", TestWorld::n(1));
  Itinerary main;
  main.sub(std::move(inner), /*vital=*/false);
  auto bytes = serial::to_bytes(main);
  const auto back = serial::from_bytes<Itinerary>(bytes);
  ASSERT_EQ(back.entries().size(), 1u);
  EXPECT_FALSE(back.entries()[0].vital());
  EXPECT_TRUE(main.entries()[0].vital() == false);
}

}  // namespace
}  // namespace mar
