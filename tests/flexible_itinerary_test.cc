// Flexible itineraries (ref [14], leaned on by Secs. 4.4.2 and 5):
// alternatives entries — options tried in order, a permanent failure
// rolls the option back (compensating its committed steps) and enters the
// next — and per-step preconditions over the weakly reversible data.
#include <gtest/gtest.h>

#include "harness/agents.h"
#include "harness/world.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Condition;
using agent::Itinerary;
using agent::PlatformConfig;
using harness::TestWorld;
using harness::WorkloadAgent;
using harness::register_workload;

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

// ---------------------------------------------------------------------------
// Navigation over alternatives (pure itinerary unit tests)
// ---------------------------------------------------------------------------

TEST(AltNavigationTest, FirstStepEntersFirstOption) {
  Itinerary a;
  a.step("s1", TestWorld::n(1));
  Itinerary b;
  b.step("s2", TestWorld::n(2));
  Itinerary sub;
  sub.alt({std::move(a), std::move(b)});
  sub.step("s3", TestWorld::n(3));
  Itinerary main;
  main.sub(std::move(sub));

  const auto first = main.first_step();
  ASSERT_TRUE(first.has_value());
  // main[0] -> sub, sub[0] -> alt, option 0, step 0.
  EXPECT_EQ(*first, (rollback::Position{0, 0, 0, 0}));
  EXPECT_EQ(main.step_at(*first).method, "s1");
}

TEST(AltNavigationTest, LeavingAnOptionSkipsItsSiblings) {
  Itinerary a;
  a.step("s1", TestWorld::n(1));
  Itinerary b;
  b.step("s2", TestWorld::n(2));
  Itinerary sub;
  sub.alt({std::move(a), std::move(b)});
  sub.step("s3", TestWorld::n(3));
  Itinerary main;
  main.sub(std::move(sub));

  // After s1 (inside option 0), the next step is s3 — NOT option 1's s2.
  const auto next = main.next_step({0, 0, 0, 0});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(main.step_at(*next).method, "s3");
  // And from option 1 as well.
  const auto next1 = main.next_step({0, 0, 1, 0});
  ASSERT_TRUE(next1.has_value());
  EXPECT_EQ(main.step_at(*next1).method, "s3");
}

TEST(AltNavigationTest, PrefixKindsClassifyEveryLevel) {
  Itinerary a;
  a.step("s1", TestWorld::n(1));
  Itinerary sub;
  sub.alt({std::move(a)});
  Itinerary main;
  main.sub(std::move(sub));

  EXPECT_EQ(main.prefix_kind({0}), Itinerary::PrefixKind::sub);
  EXPECT_EQ(main.prefix_kind({0, 0}), Itinerary::PrefixKind::alt);
  EXPECT_EQ(main.prefix_kind({0, 0, 0}), Itinerary::PrefixKind::alt_option);
  EXPECT_EQ(main.prefix_kind({0, 0, 0, 0}), Itinerary::PrefixKind::step);
  EXPECT_EQ(main.prefix_kind({0, 0, 0, 0, 0}),
            Itinerary::PrefixKind::invalid);
  EXPECT_EQ(main.prefix_kind({0, 0, 5}), Itinerary::PrefixKind::invalid);
  EXPECT_EQ(main.alt_option_count({0, 0, 0}), 1u);
  EXPECT_TRUE(main.valid_step({0, 0, 0, 0}));
  EXPECT_FALSE(main.valid_step({0, 0, 0}));
}

TEST(AltNavigationTest, AlternativesRoundTripThroughSerialization) {
  Itinerary a;
  a.step("s1", TestWorld::n(1));
  Itinerary b;
  b.step_if("s2", TestWorld::n(2),
            Condition{"budget", Condition::Op::ge, serial::Value(100)});
  Itinerary sub;
  sub.alt({std::move(a), std::move(b)});
  Itinerary main;
  main.sub(std::move(sub));

  const auto bytes = serial::to_bytes(main);
  const auto back = serial::from_bytes<Itinerary>(bytes);
  EXPECT_EQ(back.to_string(), main.to_string());
  EXPECT_NE(main.to_string().find("alt("), std::string::npos);
  EXPECT_NE(main.to_string().find("budget>="), std::string::npos);
}

TEST(AltNavigationTest, MainItineraryRejectsTopLevelAlternatives) {
  Itinerary a;
  a.step("s1", TestWorld::n(1));
  Itinerary main;
  main.alt({std::move(a)});
  EXPECT_EQ(main.validate_main().code(), Errc::invalid_itinerary);
}

// ---------------------------------------------------------------------------
// End-to-end alternative execution
// ---------------------------------------------------------------------------

/// Option 0 touches a directory entry and then fails permanently; option 1
/// succeeds. `nested` wraps option 0's failing step one sub deeper.
std::unique_ptr<WorkloadAgent> alt_agent(bool nested = false) {
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary failing;
  failing.step("touch_split", TestWorld::n(1));
  if (nested) {
    Itinerary inner;
    inner.step("noop", TestWorld::n(2));
    failing.sub(std::move(inner));
  } else {
    failing.step("noop", TestWorld::n(2));
  }
  Itinerary fallback;
  fallback.step("touch_split", TestWorld::n(3));
  Itinerary sub;
  sub.alt({std::move(failing), std::move(fallback)});
  sub.step("noop", TestWorld::n(4));
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  // The noop inside option 0 (visit 2) fails permanently.
  agent->set_trigger("noop", 2, "fail", 0);
  return agent;
}

TEST(AlternativesTest, FailedOptionIsCompensatedAndNextOptionRuns) {
  TestWorld w;
  register_workload(w.platform);
  auto id = w.platform.launch(alt_agent());
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  auto* wl = dynamic_cast<WorkloadAgent*>(fin.get());
  // Option 0's touch was compensated; only option 1's touch survives.
  EXPECT_EQ(wl->data().weak("touches").as_int(), 1);
  EXPECT_EQ(touched_keys(w, 4), 1);
  EXPECT_EQ(fin->rollbacks_completed(), 1u);
}

TEST(AlternativesTest, FailureInsideNestedSubStillFindsTheAlternative) {
  // The permanent failure happens one nesting level below the option; the
  // failure plan must walk outward past the inner (vital) sub to the
  // enclosing alternatives entry.
  TestWorld w;
  register_workload(w.platform);
  auto id = w.platform.launch(alt_agent(/*nested=*/true));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  EXPECT_EQ(touched_keys(w, 4), 1);
}

TEST(AlternativesTest, ExhaustedAlternativesFailTheAgent) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary only;
  only.step("noop", TestWorld::n(1));
  Itinerary sub;
  sub.alt({std::move(only)});  // single option, and it fails
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 1, "fail", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  EXPECT_EQ(w.platform.outcome(id.value()).state,
            AgentOutcome::State::failed);
}

TEST(AlternativesTest, ExhaustedAlternativesFallBackToNonVitalSub) {
  // alt with one failing option, inside a NON-vital sub, followed by a
  // second top-level sub: the exhausted alternatives propagate outward
  // into the abandon path.
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary only;
  only.step("touch_split", TestWorld::n(1)).step("noop", TestWorld::n(2));
  Itinerary wrapper;
  wrapper.alt({std::move(only)});
  Itinerary tail;
  tail.step("touch_split", TestWorld::n(3));
  Itinerary main;
  main.sub(std::move(wrapper), /*vital=*/false);
  main.sub(std::move(tail));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 2, "fail", 0);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  EXPECT_EQ(touched_keys(w, 3), 1);  // only the tail's touch survives
}

TEST(AlternativesTest, ThreeOptionsTriedInOrder) {
  // Options 0 and 1 both fail; option 2 succeeds.
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  auto failing = [](int node) {
    Itinerary it;
    it.step("noop", TestWorld::n(node));
    return it;
  };
  Itinerary ok;
  ok.step("touch_split", TestWorld::n(3));
  Itinerary sub;
  sub.alt({failing(1), failing(2), std::move(ok)});
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  // Both failing options' noops fail: visits 1 and 2.
  agent->set_trigger("noop", 1, "fail", 0);
  // After the first rollback the one-shot trigger is disarmed
  // (rollbacks_completed > 0), so arm the second failure via a custom
  // mechanism: the workload trigger fires once; use "fail_every_noop".
  agent->set_config("fail_all_noops", 1);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  EXPECT_EQ(touched_keys(w, 3), 1);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(fin->rollbacks_completed(), 2u);
  // Each failure sits at its option's first step, so its rollback is done
  // at once, and the agent moves on to the next option's node (N1 -> N2
  // -> N3): two resume hand-offs, each recorded as a migration.
  EXPECT_EQ(w.platform.spans().count(EventKind::migrate), 2u);
}

// ---------------------------------------------------------------------------
// Preconditions (ref [14])
// ---------------------------------------------------------------------------

TEST(ConditionTest, OperatorsEvaluateAgainstWeakData) {
  serial::Value weak = serial::Value::empty_map();
  weak.set("budget", std::int64_t{150});
  weak.set("name", std::string("amy"));
  weak.set("void", serial::Value{});

  using Op = Condition::Op;
  EXPECT_TRUE((Condition{"budget", Op::exists, {}}).eval(weak));
  EXPECT_FALSE((Condition{"missing", Op::exists, {}}).eval(weak));
  EXPECT_TRUE((Condition{"void", Op::not_exists, {}}).eval(weak));
  EXPECT_TRUE(
      (Condition{"budget", Op::eq, serial::Value(150)}).eval(weak));
  EXPECT_TRUE(
      (Condition{"name", Op::ne, serial::Value("bob")}).eval(weak));
  EXPECT_TRUE((Condition{"budget", Op::lt, serial::Value(200)}).eval(weak));
  EXPECT_TRUE((Condition{"budget", Op::le, serial::Value(150)}).eval(weak));
  EXPECT_FALSE((Condition{"budget", Op::gt, serial::Value(150)}).eval(weak));
  EXPECT_TRUE((Condition{"budget", Op::ge, serial::Value(150)}).eval(weak));
  // Comparisons against a missing slot are false, not an error.
  EXPECT_FALSE((Condition{"missing", Op::eq, serial::Value(1)}).eval(weak));
}

TEST(ConditionTest, UnsatisfiedStepsAreSkipped) {
  TestWorld w;
  register_workload(w.platform);
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary sub;
  sub.step("touch_split", TestWorld::n(1));
  // Runs only while fewer than 1 touch happened — i.e. never, since the
  // first step already touched.
  sub.step_if("touch_split", TestWorld::n(2),
              Condition{"touches", Condition::Op::lt, serial::Value(1)});
  // Runs because one touch happened.
  sub.step_if("touch_split", TestWorld::n(3),
              Condition{"touches", Condition::Op::ge, serial::Value(1)});
  Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  auto id = w.platform.launch(std::move(agent));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(dynamic_cast<WorkloadAgent*>(fin.get())
                ->data().weak("touches").as_int(),
            2);
  EXPECT_EQ(touched_keys(w, 3), 2);
  // The skipped step's node saw no publish.
  EXPECT_TRUE(w.committed(2, "dir").at("entries").as_map().empty());
}

// ---------------------------------------------------------------------------
// Randomized alternatives property
// ---------------------------------------------------------------------------

/// Random itineraries of alternatives whose leading options all fail:
/// for every seed the agent must finish with exactly one touched key per
/// alternatives entry (the surviving option's), identically across all
/// three rollback strategies.
class RandomAlternatives : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAlternatives, ExactlyOneOptionSurvivesPerAlt) {
  Rng rng(GetParam());
  const int alts = 1 + static_cast<int>(rng.next_below(3));
  std::vector<std::uint64_t> failing_options;
  for (int a = 0; a < alts; ++a) {
    failing_options.push_back(rng.next_below(3));  // 0..2 failing options
  }

  std::map<int, std::int64_t> touches_by_strategy;
  for (const auto strategy :
       {agent::RollbackStrategy::basic, agent::RollbackStrategy::optimized,
        agent::RollbackStrategy::adaptive}) {
    PlatformConfig cfg;
    cfg.strategy = strategy;
    TestWorld w(cfg, 4, GetParam());
    register_workload(w.platform);
    auto agent = std::make_unique<WorkloadAgent>();
    Itinerary sub;
    for (int a = 0; a < alts; ++a) {
      std::vector<Itinerary> options;
      for (std::uint64_t f = 0; f < failing_options[a]; ++f) {
        Itinerary failing;
        failing.step("touch_split",
                     TestWorld::n(1 + static_cast<int>(f % 4)));
        failing.step("noop", TestWorld::n(1 + static_cast<int>(a % 4)));
        options.push_back(std::move(failing));
      }
      Itinerary ok;
      ok.step("touch_split", TestWorld::n(1 + a % 4));
      options.push_back(std::move(ok));
      sub.alt(std::move(options));
    }
    Itinerary main;
    main.sub(std::move(sub));
    agent->itinerary() = std::move(main);
    agent->set_config("fail_all_noops", 1);
    auto id = w.platform.launch(std::move(agent));
    ASSERT_TRUE(id.is_ok());
    ASSERT_TRUE(w.platform.run_until_finished(id.value()));
    ASSERT_EQ(w.platform.outcome(id.value()).state,
              AgentOutcome::State::done)
        << "seed " << GetParam();
    // One surviving touch per alternatives entry; every failed option's
    // touches compensated.
    EXPECT_EQ(touched_keys(w, 4), alts) << "seed " << GetParam();
    auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
    touches_by_strategy[static_cast<int>(strategy)] =
        fin->data().weak("touches").as_int();
    EXPECT_EQ(fin->data().weak("touches").as_int(), alts);
  }
  // All strategies agree on the final weak state.
  for (const auto& [strategy, touches] : touches_by_strategy) {
    EXPECT_EQ(touches, touches_by_strategy.begin()->second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAlternatives,
                         ::testing::Values(1, 5, 9, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace mar
