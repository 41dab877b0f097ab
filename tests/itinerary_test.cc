// Unit tests for hierarchical itineraries (Sec. 4.4.2, Fig. 6), the
// agent data space (Sec. 4.1) and the agent's shared, immutable itinerary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "agent/data_space.h"
#include "agent/itinerary.h"
#include "harness/agents.h"
#include "serial/serializable.h"

// Every heap allocation of this binary is counted, so a test can assert
// how many blocks an itinerary operation takes.
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler does not pair a visible free() with the
// operator new it replaces.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace mar::agent {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

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

TEST(ItineraryTest, DfsSkipsEmptySubsAndSiblingOptions) {
  // An empty sub and an alternatives entry whose first option is empty
  // hold no first step; a step inside an option is followed by the
  // alternatives entry's successor, never by a sibling option.
  Itinerary option_a;
  option_a.step("a1", n(1)).step("a2", n(2));
  Itinerary option_b;
  option_b.step("b1", n(1));
  Itinerary empty_first;
  Itinerary sub1;
  sub1.sub(Itinerary{})
      .alt({Itinerary{}, Itinerary{}})
      .alt({std::move(option_a), std::move(option_b)})
      .step("s1", n(1));
  Itinerary sub2;
  sub2.sub(std::move(empty_first)).step("s2", n(2));
  Itinerary main;
  main.sub(std::move(sub1)).sub(Itinerary{}).sub(std::move(sub2));
  std::vector<std::string> methods;
  for (auto pos = main.first_step(); pos.has_value();
       pos = main.next_step(*pos)) {
    methods.push_back(main.step_at(*pos).method);
  }
  EXPECT_EQ(methods, (std::vector<std::string>{"a1", "a2", "s1", "s2"}));
  EXPECT_EQ(main.next_step({0, 2, 1, 0}), (Position{0, 3}));  // after b1
}

TEST(ItineraryTest, NextStepAllocatesOnlyTheReturnedPosition) {
  // local_young's shape: eight subs of eight steps, the first led by a
  // dispatch step. Each call allocates the position it returns and
  // nothing else; the call past the last step allocates nothing.
  Itinerary main;
  for (int s = 0; s < 8; ++s) {
    Itinerary sub;
    if (s == 0) sub.step("noop", n(2));
    for (int j = 0; j < 8; ++j) sub.step("spend", n(1));
    main.sub(std::move(sub));
  }
  std::vector<Position> walk;
  walk.reserve(65);
  walk.push_back(*main.first_step());
  for (;;) {
    const auto before = allocations();
    auto next = main.next_step(walk.back());
    const auto allocated = allocations() - before;
    if (!next.has_value()) {
      EXPECT_EQ(allocated, 0u);
      break;
    }
    EXPECT_EQ(allocated, 1u) << "after step " << walk.size();
    walk.push_back(std::move(*next));
  }
  EXPECT_EQ(walk.size(), 65u);
  EXPECT_EQ(walk.back(), (Position{7, 7}));
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
// The compact step entry: inline node list, shared condition, no slack
// ---------------------------------------------------------------------------

static_assert(sizeof(Itinerary::Entry) <= 96,
              "an itinerary entry must stay near its wire size");

std::vector<NodeId> nodes(std::uint32_t count) {
  std::vector<NodeId> v;
  for (std::uint32_t i = 0; i < count; ++i) v.push_back(n(10 + i));
  return v;
}

TEST(CompactEntryTest, NodeListsSurviveCopyMoveSelfAssignAndRoundTrip) {
  for (const std::uint32_t count : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(count);
    const auto want = nodes(count);
    Itinerary sub;
    sub.step("s", want);
    const StepEntry& orig = sub.entries()[0].step();
    ASSERT_EQ(orig.locations.size(), count);
    EXPECT_TRUE(std::equal(orig.locations.begin(), orig.locations.end(),
                           want.begin(), want.end()));

    StepEntry copy = orig;
    EXPECT_EQ(copy.locations, orig.locations);
    StepEntry moved = std::move(copy);
    EXPECT_EQ(moved.locations, orig.locations);
    EXPECT_EQ(copy.locations.size(), 0u);  // NOLINT(bugprone-use-after-move)
    copy = moved;  // assignment into a moved-from entry
    EXPECT_EQ(copy.locations, orig.locations);
    StepEntry& alias = copy;
    copy = alias;  // self copy-assignment
    EXPECT_EQ(copy.locations, orig.locations);
    copy = std::move(alias);  // self move-assignment keeps the list
    EXPECT_EQ(copy.locations, orig.locations);
    // Assignment across the inline/heap boundary, both ways.
    StepEntry other;
    other.locations = NodeList(std::span<const NodeId>(nodes(11 - count)));
    other = moved;
    EXPECT_EQ(other.locations, orig.locations);

    const auto back =
        serial::from_bytes<Itinerary>(serial::to_bytes(Itinerary(sub)));
    EXPECT_EQ(back.entries()[0].step().locations, orig.locations);
    EXPECT_EQ(back.entries()[0].step().primary(), n(10));
  }
}

// A 3-location step, a conditioned step, a 2-location step and an
// alternatives entry whose option carries a condition. The literal is the
// encoding of the earlier vector-and-optional entry layout: the wire form
// did not change.
TEST(CompactEntryTest, MixedItineraryEncodesToTheFormerBytes) {
  Itinerary inner;
  inner.step("a", {n(1), n(2), n(3)})
      .step_if("b", n(4), Condition{"flag", Condition::Op::ge, 7})
      .step("c", {n(5), n(6)});
  Itinerary opt1;
  opt1.step("d", n(7));
  Itinerary opt2;
  opt2.step_if("e", n(8), Condition{"k", Condition::Op::exists, {}});
  Itinerary second;
  second.step("f", n(9)).alt({opt1, opt2});
  Itinerary main;
  main.sub(std::move(inner)).sub(std::move(second), false);

  const auto bytes = serial::to_bytes(main);
  std::string hex;
  for (const auto b : bytes) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    hex += buf;
  }
  EXPECT_EQ(hex,
            "02010103000161030100000002000000030000000000016201040000000104"
            "666c616707020e000163020500000006000000000100020001660109000000"
            "000201020100016401070000000001000165010800000001016b0000");
  EXPECT_EQ(main.encoded_size(), bytes.size());
  const auto back = serial::from_bytes<Itinerary>(bytes);
  EXPECT_EQ(serial::to_bytes(back), bytes);
  EXPECT_EQ(back.to_string(), main.to_string());
}

TEST(CompactEntryTest, ShortListWithoutConditionOwnsNoHeapBlock) {
  Itinerary sub;
  sub.step("spend", {n(1), n(2)});
  const StepEntry& entry = sub.entries()[0].step();
  const auto before = allocations();
  {
    StepEntry copy = entry;
    StepEntry moved = std::move(copy);
    EXPECT_EQ(moved.locations.size(), 2u);
  }
  EXPECT_EQ(allocations(), before);
}

TEST(CompactEntryTest, ConditionIsSharedByCopies) {
  Itinerary sub;
  sub.step_if("s", n(1), Condition{"flag", Condition::Op::exists, {}});
  const StepEntry& entry = sub.entries()[0].step();
  const auto before = allocations();
  const StepEntry copy = entry;
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(copy.when.get(), entry.when.get());
}

TEST(CompactEntryTest, SixtyFourOneNodeStepsAllocateOnlyVectorGrowth) {
  Itinerary sub;
  const auto before = allocations();
  for (int i = 0; i < 64; ++i) sub.step("spend", n(1));
  // 1, 2, 4, ..., 64: seven growth steps of the entry vector, nothing
  // per step.
  EXPECT_LE(allocations() - before, 8u);
  EXPECT_EQ(sub.size(), 64u);
}

TEST(CompactEntryTest, AppendedSubDropsGrowthSlack) {
  Itinerary sub;
  for (int i = 0; i < 48; ++i) sub.step("deposit_hot", n(1));
  ASSERT_GT(sub.entries().capacity(), 48u);
  Itinerary main;
  main.sub(std::move(sub));
  EXPECT_EQ(main.entries()[0].sub().entries().capacity(), 48u);

  Itinerary option;
  for (int i = 0; i < 5; ++i) option.step("s", n(2));
  Itinerary with_alt;
  with_alt.alt({option});
  EXPECT_EQ(with_alt.entries()[0].alt().options[0].entries().capacity(), 5u);
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
std::unique_ptr<Agent> decoded_fig6_agent(AgentTypeRegistry& reg) {
  harness::WorkloadAgent ag;
  ag.itinerary() = fig6();
  ag.set_id(AgentId(5));
  ag.set_position(*std::as_const(ag).itinerary().first_step());
  return decode_agent(reg, encode_agent(ag));
}

TEST(AgentItineraryTest, CloneSharesTheItineraryObject) {
  auto reg = workload_types();
  const auto ag = decoded_fig6_agent(reg);
  const auto copies = Agent::itinerary_copies();
  const auto clone = clone_agent(reg, *ag);
  EXPECT_EQ(&std::as_const(*clone).itinerary(),
            &std::as_const(*ag).itinerary());
  EXPECT_EQ(encode_agent(*clone), encode_agent(*ag));
  EXPECT_EQ(Agent::itinerary_copies(), copies);
}

TEST(AgentItineraryTest, MutableAccessorUnsharesWithoutTouchingTheOther) {
  auto reg = workload_types();
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
  auto reg = workload_types();
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
  auto reg = workload_types();
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

// ---------------------------------------------------------------------------
// Decodes share a live byte-identical itinerary of the same agent
// ---------------------------------------------------------------------------

TEST(AgentItineraryTest, TwoDecodesOfOneImageShareOneItinerary) {
  auto reg = workload_types();
  const auto bytes = encode_agent(*decoded_fig6_agent(reg));
  const auto copies = Agent::itinerary_copies();
  const auto a = decode_agent(reg, bytes);
  const auto b = decode_agent(reg, bytes);
  EXPECT_EQ(&std::as_const(*a).itinerary(), &std::as_const(*b).itinerary());
  EXPECT_EQ(encode_agent(*a), bytes);
  EXPECT_EQ(encode_agent(*b), bytes);
  EXPECT_EQ(Agent::itinerary_copies(), copies);
}

TEST(AgentItineraryTest, SameAgentWithOtherItineraryBytesGetsItsOwnObject) {
  auto reg = workload_types();
  const auto a = decoded_fig6_agent(reg);
  harness::WorkloadAgent other;
  other.itinerary() = fig6();
  Itinerary extra;
  extra.step("s11", n(11));
  other.itinerary().sub(std::move(extra));
  other.set_id(a->id());
  const auto other_bytes = encode_agent(other);
  const auto b = decode_agent(reg, other_bytes);
  EXPECT_NE(&std::as_const(*a).itinerary(), &std::as_const(*b).itinerary());
  EXPECT_EQ(std::as_const(*b).itinerary().size(), 4u);
  EXPECT_EQ(encode_agent(*b), other_bytes);
  // A different agent with the same itinerary bytes is not the same agent.
  harness::WorkloadAgent stranger;
  stranger.itinerary() = fig6();
  stranger.set_id(AgentId(a->id().value() + 1));
  stranger.set_position(*std::as_const(stranger).itinerary().first_step());
  const auto c = decode_agent(reg, encode_agent(stranger));
  EXPECT_NE(&std::as_const(*a).itinerary(), &std::as_const(*c).itinerary());
}

TEST(AgentItineraryTest, EditAfterSharedDecodeUnsharesAndLeavesTheOther) {
  auto reg = workload_types();
  const auto bytes = encode_agent(*decoded_fig6_agent(reg));
  const auto a = decode_agent(reg, bytes);
  const auto b = decode_agent(reg, bytes);
  const auto copies = Agent::itinerary_copies();
  Itinerary extra;
  extra.step("s11", n(11));
  a->itinerary().sub(std::move(extra));
  EXPECT_EQ(Agent::itinerary_copies(), copies + 1);
  EXPECT_NE(&std::as_const(*a).itinerary(), &std::as_const(*b).itinerary());
  EXPECT_EQ(encode_agent(*b), bytes);
  // A later decode of the original image still shares b's object, and the
  // edited agent round-trips to its own itinerary.
  const auto c = decode_agent(reg, bytes);
  EXPECT_EQ(&std::as_const(*c).itinerary(), &std::as_const(*b).itinerary());
  const auto edited = encode_agent(*a);
  EXPECT_EQ(encode_agent(*decode_agent(reg, edited)), edited);
}

TEST(AgentItineraryTest, ALoneItineraryEditedInPlaceIsNeverMatched) {
  auto reg = workload_types();
  const auto bytes = encode_agent(*decoded_fig6_agent(reg));
  const auto a = decode_agent(reg, bytes);
  Itinerary extra;
  extra.step("s11", n(11));
  a->itinerary().sub(std::move(extra));  // sole owner: edited in place
  const auto b = decode_agent(reg, bytes);
  EXPECT_NE(&std::as_const(*a).itinerary(), &std::as_const(*b).itinerary());
  EXPECT_EQ(encode_agent(*b), bytes);
  EXPECT_EQ(std::as_const(*a).itinerary().size(), 4u);
}

TEST(AgentItineraryTest, TableDropsExpiredEntriesAndKeepsLiveOnes) {
  auto reg = workload_types();
  const auto image_of = [](std::uint64_t id) {
    harness::WorkloadAgent ag;
    ag.itinerary() = fig6();
    ag.set_id(AgentId(id));
    return encode_agent(ag);
  };
  std::vector<std::unique_ptr<Agent>> kept;
  for (std::uint64_t id = 1; id <= 100; ++id) {
    kept.push_back(decode_agent(reg, image_of(id)));
  }
  for (std::uint64_t id = 101; id <= 2000; ++id) {
    (void)decode_agent(reg, image_of(id));  // dead on return
  }
  // Sweeps run when the table doubles past its survivors.
  EXPECT_LE(reg.itineraries().size(), 2 * kept.size());
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto again = decode_agent(reg, image_of(id));
    EXPECT_EQ(&std::as_const(*again).itinerary(),
              &std::as_const(*kept[id - 1]).itinerary())
        << id;
  }
}

// ---------------------------------------------------------------------------
// clone_agent copy-constructs through the registry
// ---------------------------------------------------------------------------

TEST(CloneAgentTest, CloneEncodesEqualAndNeverWritesThrough) {
  auto reg = workload_types();
  harness::WorkloadAgent src;
  src.itinerary() = fig6();
  src.set_id(AgentId(12));
  src.set_position(*std::as_const(src).itinerary().first_step());
  src.data().weak("cash") = std::int64_t{40};
  src.data().strong("results").push_back(serial::Value("r1"));
  src.log().push(rollback::BeginOfStepEntry{n(7), "s7"});
  rollback::EndOfStepEntry eos;
  eos.node = n(7);
  src.log().push(eos);
  const auto agent = decode_agent(reg, encode_agent(src));
  const auto before = encode_agent(*agent);

  const auto clone = clone_agent(reg, *agent);
  ASSERT_NE(dynamic_cast<harness::WorkloadAgent*>(clone.get()), nullptr);
  EXPECT_EQ(encode_agent(*clone), before);
  EXPECT_TRUE(clone->delta_ready());  // the baseline is set as on decode

  clone->data().weak("cash") = std::int64_t{1};
  clone->data().strong("results").push_back(serial::Value("r2"));
  clone->data().declare_weak("extra", serial::Value(std::int64_t{3}));
  clone->log().push(rollback::BeginOfStepEntry{n(1), "s1"});
  clone->set_position(Position{0, 1});
  EXPECT_EQ(encode_agent(*agent), before);
  EXPECT_NE(encode_agent(*clone), before);
  EXPECT_EQ(agent->log().size(), 2u);
  EXPECT_EQ(clone->log().size(), 3u);
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
