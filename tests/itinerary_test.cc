// Unit tests for hierarchical itineraries (Sec. 4.4.2, Fig. 6), the
// agent data space (Sec. 4.1) and the agent's shared, immutable itinerary.
#include <gtest/gtest.h>

#include <utility>

#include "agent/agent.h"
#include "agent/data_space.h"
#include "agent/itinerary.h"
#include "harness/agents.h"
#include "serial/serializable.h"

namespace mar::agent {
namespace {

NodeId n(std::uint32_t i) { return NodeId(i); }

/// Fig. 6's itinerary: I contains SI1, SI2, SI3; SI3 contains s6, SI4
/// (s5, s4) and SI5 (s9, s10); SI1 has s7, s1, s8; SI2 has s2, s3.
/// (Order inside subs is the sequence given here.)
Itinerary fig6() {
  Itinerary si1;
  si1.step("s7", n(7)).step("s1", n(1)).step("s8", n(8));
  Itinerary si2;
  si2.step("s2", n(2)).step("s3", n(3));
  Itinerary si4;
  si4.step("s5", n(5)).step("s4", n(4));
  Itinerary si5;
  si5.step("s9", n(9)).step("s10", n(10));
  Itinerary si3;
  si3.step("s6", n(6)).sub(std::move(si4)).sub(std::move(si5));
  Itinerary main;
  main.sub(std::move(si1)).sub(std::move(si2)).sub(std::move(si3));
  return main;
}

TEST(ItineraryTest, ValidateMainAcceptsFig6) {
  EXPECT_TRUE(fig6().validate_main().is_ok());
}

TEST(ItineraryTest, ValidateMainRejectsTopLevelSteps) {
  Itinerary main;
  main.step("s", n(1));
  EXPECT_EQ(main.validate_main().code(), Errc::invalid_itinerary);
}

TEST(ItineraryTest, ValidateMainRejectsEmpty) {
  EXPECT_EQ(Itinerary{}.validate_main().code(), Errc::invalid_itinerary);
  Itinerary main;
  main.sub(Itinerary{});
  EXPECT_EQ(main.validate_main().code(), Errc::invalid_itinerary);
}

TEST(ItineraryTest, DfsTraversalVisitsAllSteps) {
  const auto it = fig6();
  std::vector<std::string> methods;
  auto pos = it.first_step();
  while (pos.has_value()) {
    methods.push_back(it.step_at(*pos).method);
    pos = it.next_step(*pos);
  }
  EXPECT_EQ(methods, (std::vector<std::string>{"s7", "s1", "s8", "s2", "s3",
                                               "s6", "s5", "s4", "s9",
                                               "s10"}));
}

TEST(ItineraryTest, PositionsAddressNestedSteps) {
  const auto it = fig6();
  // SI3 is entry 2 of main; SI4 is entry 1 of SI3; s4 is entry 1 of SI4.
  const Position s4{2, 1, 1};
  EXPECT_TRUE(it.valid_step(s4));
  EXPECT_EQ(it.step_at(s4).method, "s4");
  EXPECT_FALSE(it.valid_step(Position{2, 1}));   // addresses a sub
  EXPECT_FALSE(it.valid_step(Position{9}));      // out of range
  EXPECT_FALSE(it.valid_step(Position{}));
}

TEST(ItineraryTest, ActiveSubsAreProperPrefixes) {
  const Position s4{2, 1, 1};
  const auto subs = Itinerary::active_subs(s4);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0], (Position{2}));     // SI3, depth 1
  EXPECT_EQ(subs[1], (Position{2, 1}));  // SI4, depth 2
}

TEST(ItineraryTest, EnteredAndExitedSubsAcrossMove) {
  // Move from s4 (in SI4) to s9 (in SI5): exits SI4, enters SI5, stays in
  // SI3 — the scenario discussed in Sec. 4.4.2.
  const Position s4{2, 1, 1};
  const Position s9{2, 2, 0};
  const auto exited = Itinerary::exited_subs(s4, s9);
  ASSERT_EQ(exited.size(), 1u);
  EXPECT_EQ(exited[0], (Position{2, 1}));
  const auto entered = Itinerary::entered_subs(s4, s9);
  ASSERT_EQ(entered.size(), 1u);
  EXPECT_EQ(entered[0], (Position{2, 2}));
}

TEST(ItineraryTest, LaunchEntersAllEnclosingSubs) {
  const auto entered = Itinerary::entered_subs(Position{}, Position{2, 1, 0});
  ASSERT_EQ(entered.size(), 2u);
  EXPECT_EQ(entered[0], (Position{2}));
  EXPECT_EQ(entered[1], (Position{2, 1}));
}

TEST(ItineraryTest, FinishExitsAllSubsInnermostFirst) {
  const auto exited = Itinerary::exited_subs(Position{2, 1, 1}, Position{});
  ASSERT_EQ(exited.size(), 2u);
  EXPECT_EQ(exited[0], (Position{2, 1}));
  EXPECT_EQ(exited[1], (Position{2}));
}

TEST(ItineraryTest, TopLevelBoundaryCrossing) {
  // s8 (SI1, pos {0,2}) -> s2 (SI2, pos {1,0}): SI1 exits, SI2 enters.
  const auto exited = Itinerary::exited_subs(Position{0, 2}, Position{1, 0});
  ASSERT_EQ(exited.size(), 1u);
  EXPECT_EQ(exited[0], (Position{0}));
  const auto entered = Itinerary::entered_subs(Position{0, 2}, Position{1, 0});
  ASSERT_EQ(entered.size(), 1u);
  EXPECT_EQ(entered[0], (Position{1}));
}

TEST(ItineraryTest, AlternativeLocations) {
  Itinerary sub;
  sub.step("s", {n(1), n(2), n(3)});
  EXPECT_EQ(sub.entries()[0].step().primary(), n(1));
  EXPECT_EQ(sub.entries()[0].step().locations.size(), 3u);
}

TEST(ItineraryTest, SerializationRoundTrip) {
  const auto it = fig6();
  auto bytes = serial::to_bytes(it);
  auto back = serial::from_bytes<Itinerary>(bytes);
  // Compare traversals.
  auto pa = it.first_step();
  auto pb = back.first_step();
  while (pa.has_value() && pb.has_value()) {
    EXPECT_EQ(it.step_at(*pa).method, back.step_at(*pb).method);
    EXPECT_EQ(it.step_at(*pa).locations, back.step_at(*pb).locations);
    pa = it.next_step(*pa);
    pb = back.next_step(*pb);
  }
  EXPECT_EQ(pa.has_value(), pb.has_value());
}

// ---------------------------------------------------------------------------
// The agent's itinerary: one shared immutable object with memoized bytes
// ---------------------------------------------------------------------------

AgentTypeRegistry workload_types() {
  AgentTypeRegistry reg;
  reg.register_type<harness::WorkloadAgent>("workload");
  return reg;
}

/// A Fig. 6 agent as a node holds it: decoded from its captured image.
std::unique_ptr<Agent> decoded_fig6_agent(const AgentTypeRegistry& reg) {
  harness::WorkloadAgent ag;
  ag.itinerary() = fig6();
  ag.set_id(AgentId(5));
  ag.set_position(*std::as_const(ag).itinerary().first_step());
  return decode_agent(reg, encode_agent(ag));
}

TEST(AgentItineraryTest, CloneSharesTheItineraryObject) {
  const auto reg = workload_types();
  const auto ag = decoded_fig6_agent(reg);
  const auto copies = Agent::itinerary_copies();
  const auto clone = clone_agent(reg, *ag);
  EXPECT_EQ(&std::as_const(*clone).itinerary(),
            &std::as_const(*ag).itinerary());
  EXPECT_EQ(encode_agent(*clone), encode_agent(*ag));
  EXPECT_EQ(Agent::itinerary_copies(), copies);
}

TEST(AgentItineraryTest, MutableAccessorUnsharesWithoutTouchingTheOther) {
  const auto reg = workload_types();
  const auto ag = decoded_fig6_agent(reg);
  const auto before = encode_agent(*ag);
  const auto clone = clone_agent(reg, *ag);
  const auto copies = Agent::itinerary_copies();
  Itinerary extra;
  extra.step("s11", n(11));
  clone->itinerary().sub(std::move(extra));
  EXPECT_EQ(Agent::itinerary_copies(), copies + 1);
  EXPECT_NE(&std::as_const(*clone).itinerary(),
            &std::as_const(*ag).itinerary());
  EXPECT_EQ(std::as_const(*ag).itinerary().size(), 3u);
  EXPECT_EQ(std::as_const(*clone).itinerary().size(), 4u);
  EXPECT_EQ(encode_agent(*ag), before);
  // The edited copy captures its edited itinerary, not the stale memo.
  const auto back = decode_agent(reg, encode_agent(*clone));
  EXPECT_EQ(serial::to_bytes(std::as_const(*back).itinerary()),
            serial::to_bytes(std::as_const(*clone).itinerary()));
  // Unshared already: a second mutable access copies nothing.
  (void)clone->itinerary();
  EXPECT_EQ(Agent::itinerary_copies(), copies + 1);
}

TEST(AgentItineraryTest, MemoizedBytesEqualAFreshSerialize) {
  const auto reg = workload_types();
  const auto ag = decoded_fig6_agent(reg);  // carries the byte memo
  // A clone unshared through the mutable accessor has no memo: its
  // capture walks the itinerary.
  const auto walked = clone_agent(reg, *ag);
  (void)walked->itinerary();
  EXPECT_EQ(encode_agent(*ag), encode_agent(*walked));
  EXPECT_EQ(ag->serialized_size(), walked->serialized_size());
  EXPECT_EQ(serial::to_bytes(std::as_const(*ag).itinerary()),
            serial::to_bytes(fig6()));
}

TEST(AgentItineraryTest, DecodeEncodeIdentityHolds) {
  const auto reg = workload_types();
  harness::WorkloadAgent ag;
  ag.itinerary() = fig6();
  ag.set_id(AgentId(9));
  ag.data().weak("cash") = std::int64_t{17};
  const auto bytes = encode_agent(ag);
  const auto once = decode_agent(reg, bytes);
  EXPECT_EQ(encode_agent(*once), bytes);
  const auto twice = decode_agent(reg, encode_agent(*once));
  EXPECT_EQ(encode_agent(*twice), bytes);
  EXPECT_EQ(encode_agent(*clone_agent(reg, *twice)), bytes);
}

TEST(ItineraryTest, ToStringRendersHierarchy) {
  Itinerary sub;
  sub.step("a", n(1));
  Itinerary main;
  main.sub(std::move(sub));
  EXPECT_EQ(main.to_string(), "[[a@N1]]");
}

// --------------------------------------------------------------------------
// DataSpace (Sec. 4.1)
// --------------------------------------------------------------------------

TEST(DataSpaceTest, StrongAndWeakSlots) {
  DataSpace d;
  d.declare_strong("results", serial::Value::empty_list());
  d.declare_weak("cash", std::int64_t{100});
  EXPECT_TRUE(d.has_strong("results"));
  EXPECT_TRUE(d.has_weak("cash"));
  EXPECT_FALSE(d.has_strong("cash"));
  d.weak("cash") = std::int64_t{50};
  EXPECT_EQ(d.weak("cash").as_int(), 50);
}

TEST(DataSpaceTest, DeclarationIsIdempotentAndKindChecked) {
  DataSpace d;
  d.declare_strong("s", std::int64_t{1});
  d.declare_strong("s", std::int64_t{999});  // keeps existing value
  EXPECT_EQ(d.strong("s").as_int(), 1);
  EXPECT_THROW(d.declare_weak("s", serial::Value{}), LogicError);
}

TEST(DataSpaceTest, StrongAccessForbiddenDuringCompensation) {
  // Sec. 4.3: "accessing the strongly reversible objects during the
  // execution of the compensating operations is not allowed".
  DataSpace d;
  d.declare_strong("s", std::int64_t{1});
  d.declare_weak("w", std::int64_t{2});
  d.set_mode(DataSpace::Mode::compensating);
  EXPECT_THROW((void)d.strong("s"), LogicError);
  EXPECT_EQ(d.weak("w").as_int(), 2);  // weak access stays legal
  d.set_mode(DataSpace::Mode::normal);
  EXPECT_EQ(d.strong("s").as_int(), 1);
}

TEST(DataSpaceTest, ImageAndRestore) {
  DataSpace d;
  d.declare_strong("a", std::int64_t{1});
  d.declare_strong("b", std::string("x"));
  const auto image = d.strong_image();
  d.strong("a") = std::int64_t{42};
  d.strong("b") = std::string("changed");
  d.restore_strong(image);
  EXPECT_EQ(d.strong("a").as_int(), 1);
  EXPECT_EQ(d.strong("b").as_string(), "x");
}

TEST(DataSpaceTest, SerializationRoundTrip) {
  DataSpace d;
  d.declare_strong("a", std::int64_t{1});
  d.declare_weak("w", std::string("v"));
  auto bytes = serial::to_bytes(d);
  serial::Decoder dec(bytes);
  DataSpace back;
  back.deserialize(dec);
  EXPECT_EQ(back.strong("a").as_int(), 1);
  EXPECT_EQ(back.weak("w").as_string(), "v");
}

TEST(DataSpaceTest, ModeIsRuntimeOnlyNotSerialized) {
  DataSpace d;
  d.declare_strong("a", std::int64_t{1});
  d.set_mode(DataSpace::Mode::compensating);
  auto bytes = serial::to_bytes(d);
  serial::Decoder dec(bytes);
  DataSpace back;
  back.deserialize(dec);
  EXPECT_EQ(back.mode(), DataSpace::Mode::normal);
}

}  // namespace
}  // namespace mar::agent
