// Robustness of the wire formats and the mailbox resource.
//
// The platform trusts nothing it reads back from a queue or the network:
// every decode is bounds-checked and raises DecodeError on malformed
// input. These tests fuzz the codecs with truncations and byte flips —
// any outcome other than "decodes cleanly" or "throws DecodeError" (e.g.
// a crash, hang, or unchecked exception type) fails the suite.
#include <gtest/gtest.h>

#include "harness/agents.h"
#include "harness/world.h"
#include "resource/mailbox.h"

namespace mar {
namespace {

using agent::Itinerary;
using harness::TestWorld;
using harness::WorkloadAgent;

serial::Bytes encoded_sample_agent() {
  auto agent = std::make_unique<WorkloadAgent>();
  Itinerary sub;
  sub.step("touch_split", TestWorld::n(1))
      .step_if("noop", TestWorld::n(2),
               agent::Condition{"touches", agent::Condition::Op::ge,
                                serial::Value(1)});
  Itinerary fallback;
  fallback.step("collect", TestWorld::n(3));
  Itinerary alt_sub;
  alt_sub.alt({std::move(sub), std::move(fallback)});
  Itinerary main;
  main.sub(std::move(alt_sub));
  agent->itinerary() = std::move(main);
  agent->set_trigger("noop", 2, "sub", 0);
  agent->data().weak("cash") = std::int64_t{123};
  agent->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "s"});
  rollback::OperationEntry op;
  op.kind = rollback::OpEntryKind::mixed;
  op.comp_op = "comp.x";
  op.params = serial::Value("p");
  op.resource_node = TestWorld::n(1);
  op.resource = "dir";
  agent->log().push(op);
  rollback::EndOfStepEntry eos;
  eos.node = TestWorld::n(1);
  eos.has_mixed = true;
  agent->log().push(eos);
  return agent::encode_agent(*agent);
}

agent::AgentTypeRegistry registry_with_workload() {
  agent::AgentTypeRegistry reg;
  reg.register_type<WorkloadAgent>("workload");
  return reg;
}

TEST(FuzzDecode, SampleAgentRoundTrips) {
  const auto bytes = encoded_sample_agent();
  auto reg = registry_with_workload();
  auto agent = agent::decode_agent(reg, bytes);
  EXPECT_EQ(agent->data().weak("cash").as_int(), 123);
  EXPECT_EQ(agent->log().size(), 3u);
  EXPECT_EQ(agent::encode_agent(*agent), bytes);  // canonical encoding
}

TEST(FuzzDecode, EveryTruncationThrowsOrDecodes) {
  const auto bytes = encoded_sample_agent();
  auto reg = registry_with_workload();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    serial::Bytes cut(bytes.begin(),
                      bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)agent::decode_agent(reg, cut), serial::DecodeError)
        << "truncation at " << len;
  }
}

TEST(FuzzDecode, RandomByteFlipsNeverCrash) {
  const auto bytes = encoded_sample_agent();
  auto reg = registry_with_workload();
  Rng rng(0xf1e5);
  int decoded = 0;
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    serial::Bytes mutated = bytes;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto at = rng.next_below(mutated.size());
      mutated[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    try {
      auto agent = agent::decode_agent(reg, mutated);
      ++decoded;  // the flip hit a benign spot
    } catch (const serial::DecodeError&) {
      ++rejected;
    } catch (const std::bad_alloc&) {
      // A flipped length prefix may demand absurd allocations; the codec
      // bounds-checks against the remaining buffer, so this must not
      // happen.
      FAIL() << "unbounded allocation on flipped input";
    }
  }
  EXPECT_EQ(decoded + rejected, 2000);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzDecode, QueueRecordTruncationsThrow) {
  storage::QueueRecord rec;
  rec.record_id = 42;
  rec.agent = AgentId(7);
  rec.kind = storage::RecordKind::compensate;
  rec.rollback_target = SavepointId(3);
  rec.completion = storage::QueueRecord::Completion::next_alt;
  rec.payload = serial::Bytes{1, 2, 3, 4};
  const auto bytes = serial::to_bytes(rec);
  const auto back = serial::from_bytes<storage::QueueRecord>(bytes);
  EXPECT_EQ(back.record_id, 42u);
  EXPECT_EQ(back.completion, storage::QueueRecord::Completion::next_alt);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    serial::Bytes cut(bytes.begin(),
                      bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)serial::from_bytes<storage::QueueRecord>(cut),
                 serial::DecodeError);
  }
}

TEST(FuzzDecode, RollbackLogTruncationsThrow) {
  const auto bytes = encoded_sample_agent();
  auto reg = registry_with_workload();
  auto agent = agent::decode_agent(reg, bytes);
  const auto log_bytes = serial::to_bytes(agent->log());
  for (std::size_t len = 0; len < log_bytes.size(); ++len) {
    serial::Bytes cut(log_bytes.begin(),
                      log_bytes.begin() + static_cast<long>(len));
    EXPECT_THROW((void)serial::from_bytes<rollback::RollbackLog>(cut),
                 serial::DecodeError);
  }
}

// ---------------------------------------------------------------------------
// Mailbox resource
// ---------------------------------------------------------------------------

serial::Value params(
    std::initializer_list<std::pair<std::string, serial::Value>> kv) {
  serial::Value v = serial::Value::empty_map();
  for (auto& [k, val] : kv) v.set(k, val);
  return v;
}

TEST(MailboxTest, PutPeekTakeLifecycle) {
  resource::Mailbox box;
  auto state = box.initial_state();

  auto missing = box.invoke("peek", params({{"key", "a"}}), state);
  EXPECT_EQ(missing.code(), Errc::not_found);

  ASSERT_TRUE(box.invoke("put", params({{"key", "a"}, {"value", 41}}), state)
                  .is_ok());
  auto peeked = box.invoke("peek", params({{"key", "a"}}), state);
  ASSERT_TRUE(peeked.is_ok());
  EXPECT_EQ(peeked.value().at("value").as_int(), 41);

  // Peek does not consume; take does.
  auto taken = box.invoke("take", params({{"key", "a"}}), state);
  ASSERT_TRUE(taken.is_ok());
  EXPECT_EQ(taken.value().at("value").as_int(), 41);
  EXPECT_EQ(box.invoke("take", params({{"key", "a"}}), state).code(),
            Errc::not_found);
}

TEST(MailboxTest, PutOverwritesAndExistsReports) {
  resource::Mailbox box;
  auto state = box.initial_state();
  ASSERT_TRUE(box.invoke("put", params({{"key", "k"}, {"value", 1}}), state)
                  .is_ok());
  ASSERT_TRUE(box.invoke("put", params({{"key", "k"}, {"value", 2}}), state)
                  .is_ok());
  auto v = box.invoke("take", params({{"key", "k"}}), state);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().at("value").as_int(), 2);
  auto exists = box.invoke("exists", params({{"key", "k"}}), state);
  ASSERT_TRUE(exists.is_ok());
  EXPECT_FALSE(exists.value().at("present").as_bool());
}

TEST(MailboxTest, UnknownOpIsRejected) {
  resource::Mailbox box;
  auto state = box.initial_state();
  EXPECT_EQ(box.invoke("drop_all", params({}), state).code(),
            Errc::rejected);
}

TEST(MailboxTest, TakeIsUndoneByTransactionAbort) {
  // Through the transactional ResourceManager: an aborted take leaves the
  // message in place (this is what makes a parked join retry sound).
  TestWorld w(agent::PlatformConfig{}, 1);
  auto& rm = w.platform.node(TestWorld::n(1)).resources();
  auto& txm = w.platform.node(TestWorld::n(1)).txm();

  serial::Value state = rm.committed_state("mailbox");
  state.as_map().at("slots").set("msg", serial::Value(7));
  rm.poke_state("mailbox", std::move(state));

  const TxId tx = txm.begin();
  auto taken = rm.invoke(tx, "mailbox", "take", params({{"key", "msg"}}));
  ASSERT_TRUE(taken.is_ok());
  txm.abort_tx(tx);

  const TxId tx2 = txm.begin();
  auto again = rm.invoke(tx2, "mailbox", "take", params({{"key", "msg"}}));
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().at("value").as_int(), 7);
  txm.abort_tx(tx2);
}

}  // namespace
}  // namespace mar
