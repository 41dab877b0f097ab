// Unit tests for utility primitives: ids, results, rng, the event sink.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/check.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/span.h"

namespace mar {
namespace {

TEST(IdsTest, StrongTypingAndComparison) {
  const NodeId a(1);
  const NodeId b(2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, NodeId(1));
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(NodeId::invalid().valid());
  EXPECT_FALSE(NodeId{}.valid());
}

TEST(IdsTest, Hashable) {
  std::set<TxId> s;
  s.insert(TxId(1));
  s.insert(TxId(2));
  s.insert(TxId(1));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(std::hash<TxId>{}(TxId(5)), std::hash<std::uint64_t>{}(5));
}

TEST(CheckTest, ThrowsWithContext) {
  try {
    MAR_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const LogicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(StatusTest, OkAndError) {
  Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.code(), Errc::ok);

  Status err(Errc::lock_conflict, "r1 busy");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), Errc::lock_conflict);
  EXPECT_EQ(err.to_string(), "lock_conflict: r1 busy");
  EXPECT_TRUE(err == Errc::lock_conflict);
}

TEST(ResultTest, ValueAndError) {
  Result<int> r(5);
  EXPECT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(r.value_or(9), 5);

  Result<int> e(Errc::not_found, "gone");
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.code(), Errc::not_found);
  EXPECT_EQ(e.value_or(9), 9);
  EXPECT_THROW((void)e.value(), LogicError);
}

TEST(ResultTest, OkStatusCannotCarryNoValue) {
  EXPECT_THROW((Result<int>(Status::ok())), LogicError);
}

Status fails() { return Status(Errc::rejected, "no"); }
Status propagates() {
  MAR_RETURN_IF_ERROR(fails());
  return Status::ok();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(propagates().code(), Errc::rejected);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRoughlyRightMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(EventSinkTest, RecordsAndCounts) {
  SpanSink sink;
  sink.add_node(2);
  sink.event(EventKind::step_begin, 1, 7, 10, /*value=*/3);
  sink.event(EventKind::step_commit, 1, 7, 20, /*value=*/3);
  sink.event(EventKind::step_begin, 2, 8, 30, /*value=*/4);
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.count(EventKind::step_begin), 2u);
  EXPECT_EQ(sink.count(EventKind::step_begin, 2), 1u);
  EXPECT_EQ(sink.count(EventKind::restore), 0u);
  const auto commits = sink.of_kind(EventKind::step_commit);
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].kind, SpanKind::instant);
  EXPECT_EQ(commits[0].begin_us, 20u);
  EXPECT_EQ(commits[0].end_us, 20u);
  EXPECT_EQ(commits[0].agent, 7u);
  EXPECT_EQ(commits[0].value, 3u);
}

TEST(EventSinkTest, EventsKeepRecordOrderAcrossNodes) {
  SpanSink sink;
  sink.event(EventKind::crash, 2, 0, 5);
  sink.event(EventKind::recover, 1, 0, 5);
  sink.event(EventKind::crash, 1, 0, 5);
  const auto all = sink.spans();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].event, EventKind::crash);
  EXPECT_EQ(all[0].node, 2u);
  EXPECT_EQ(all[1].event, EventKind::recover);
  EXPECT_EQ(all[2].node, 1u);
}

TEST(EventSinkTest, CountsSurviveRingEvictionAndDisabling) {
  SpanSink sink;
  sink.set_capacity(4);
  for (std::uint64_t t = 0; t < 100; ++t) {
    sink.event(EventKind::step_commit, 1, 1, t);
  }
  EXPECT_EQ(sink.size(), 4u);  // bounded ring
  EXPECT_EQ(sink.count(EventKind::step_commit), 100u);  // exact total
  EXPECT_EQ(sink.of_kind(EventKind::step_commit).front().begin_us, 96u);

  sink.set_enabled(false);
  sink.event(EventKind::step_commit, 1, 1, 100);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.count(EventKind::step_commit), 101u);
}

TEST(EventSinkTest, TextIsRenderedOnlyOnPrint) {
  SpanSink sink;
  sink.event(EventKind::migrate, 1, 5, 40, /*value=*/2, /*value2=*/412,
             static_cast<std::uint8_t>(MigrateCause::step));
  sink.event(EventKind::savepoint, 2, 5, 50, /*value=*/3, 0,
             kSavepointLightweight);
  const auto events = sink.spans();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].note(), "to=2 bytes=412 cause=step");
  EXPECT_EQ(events[1].note(), "sp=3 flags=1");
  std::ostringstream os;
  sink.print(os);
  EXPECT_NE(os.str().find("migrate"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("agent 5 sp=3 flags=1"), std::string::npos)
      << os.str();
  std::ostringstream js;
  sink.dump(js);
  EXPECT_NE(js.str().find("\"kind\": \"instant\", \"name\": \"savepoint\""),
            std::string::npos)
      << js.str();
}

}  // namespace
}  // namespace mar
