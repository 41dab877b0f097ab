// Unit tests for stable storage, queue staging, and the distributed
// transaction manager (1PC fast path, 2PC, presumed abort, recovery).
#include <gtest/gtest.h>

#include "net/network.h"
#include "resource/bank.h"
#include "resource/resource_manager.h"
#include "serial/serializable.h"
#include "sim/simulator.h"
#include "storage/stable_storage.h"
#include "tx/queue_manager.h"
#include "tx/tx_manager.h"

namespace mar {
namespace {

using storage::QueueRecord;
using storage::RecordKind;
using storage::StableStorage;

QueueRecord record(std::uint64_t id, std::uint64_t agent = 1) {
  QueueRecord r;
  r.record_id = id;
  r.agent = AgentId(agent);
  r.kind = RecordKind::execute;
  r.payload = {1, 2, 3};
  return r;
}

TEST(StableStorageTest, KvBasics) {
  StableStorage s;
  EXPECT_FALSE(s.get("k").has_value());
  s.put("k", {1, 2});
  ASSERT_TRUE(s.get("k").has_value());
  EXPECT_EQ(s.get("k")->size(), 2u);
  EXPECT_TRUE(s.contains("k"));
  EXPECT_TRUE(s.erase("k"));
  EXPECT_FALSE(s.erase("k"));
}

TEST(StableStorageTest, PrefixScan) {
  StableStorage s;
  s.put("a:1", {});
  s.put("a:2", {});
  s.put("b:1", {});
  EXPECT_EQ(s.keys_with_prefix("a:").size(), 2u);
  EXPECT_EQ(s.keys_with_prefix("b:").size(), 1u);
  EXPECT_TRUE(s.keys_with_prefix("c:").empty());
}

TEST(StableStorageTest, QueueFifoAndRemove) {
  StableStorage s;
  s.enqueue(record(1));
  s.enqueue(record(2));
  ASSERT_FALSE(s.queue_empty());
  EXPECT_EQ(s.queue().front().record_id, 1u);
  EXPECT_TRUE(s.remove(1));
  EXPECT_EQ(s.queue().front().record_id, 2u);
  EXPECT_FALSE(s.remove(1));
}

TEST(StableStorageTest, DuplicateEnqueueIgnoredEvenAfterRemoval) {
  // Exactly-once: a duplicate commit of the same transfer must not
  // resurrect a consumed record.
  StableStorage s;
  s.enqueue(record(7));
  EXPECT_TRUE(s.remove(7));
  s.enqueue(record(7));
  EXPECT_TRUE(s.queue_empty());
}

TEST(StableStorageTest, MetersBytesWritten) {
  StableStorage s;
  const auto before = s.stats().bytes_written;
  s.put("key", serial::Bytes(100));
  s.enqueue(record(1));
  EXPECT_GT(s.stats().bytes_written, before + 100);
  EXPECT_EQ(s.stats().kv_writes, 1u);
  EXPECT_EQ(s.stats().queue_ops, 1u);
}

TEST(QueueRecordTest, SerializationRoundTrip) {
  QueueRecord r;
  r.record_id = 42;
  r.agent = AgentId(9);
  r.kind = RecordKind::compensate;
  r.rollback_target = SavepointId(3);
  r.payload = {9, 9, 9};
  serial::Encoder enc;
  r.serialize(enc);
  serial::Decoder dec(enc.buffer());
  QueueRecord back;
  back.deserialize(dec);
  EXPECT_EQ(back.record_id, 42u);
  EXPECT_EQ(back.agent, AgentId(9));
  EXPECT_EQ(back.kind, RecordKind::compensate);
  EXPECT_EQ(back.rollback_target, SavepointId(3));
  EXPECT_EQ(back.payload, serial::Bytes({9, 9, 9}));
}

// --------------------------------------------------------------------------
// QueueManager as a participant
// --------------------------------------------------------------------------

TEST(StableStorageTest, RecordAreaBasics) {
  StableStorage s;
  EXPECT_FALSE(s.has_record("agent:1"));
  EXPECT_EQ(s.record_segment_count("agent:1"), 0u);
  s.record_reset("agent:1", {1, 2, 3});
  s.record_append("agent:1", {4});
  s.record_append("agent:1", {5, 6});
  ASSERT_TRUE(s.has_record("agent:1"));
  const auto* segs = s.record_segments("agent:1");
  ASSERT_NE(segs, nullptr);
  ASSERT_EQ(segs->size(), 3u);
  EXPECT_EQ((*segs)[0], (serial::Bytes{1, 2, 3}));
  EXPECT_EQ((*segs)[2], (serial::Bytes{5, 6}));
  // Compaction: reset folds the chain back to one base segment.
  s.record_reset("agent:1", {9});
  EXPECT_EQ(s.record_segment_count("agent:1"), 1u);
  EXPECT_TRUE(s.record_erase("agent:1"));
  EXPECT_FALSE(s.record_erase("agent:1"));
  EXPECT_EQ(s.record_segments("agent:1"), nullptr);
}

TEST(StableStorageTest, RecordAreaMetersAppendsNotRewrites) {
  // The append is metered at its framed cost — crc32 + len (8) + op +
  // key_len (5) + key (1) + delta (10) — whatever the record's size.
  constexpr std::size_t kFramedAppend = 8 + 5 + 1 + 10;
  for (const std::size_t base : {std::size_t{1000}, std::size_t{1}}) {
    StableStorage s;
    s.record_reset("k", serial::Bytes(base, 0xAA));
    const auto after_base = s.stats().bytes_written.load();
    s.record_append("k", serial::Bytes(10, 0xBB));
    EXPECT_EQ(s.stats().bytes_written.load() - after_base, kFramedAppend)
        << "base " << base;
    EXPECT_EQ(s.stats().record_resets, 1u);
    EXPECT_EQ(s.stats().record_appends, 1u);
  }
}

TEST(StableStorageTest, ForEachWithPrefixVisitsInOrder) {
  StableStorage s;
  s.put("a:2", {2});
  s.put("a:1", {1});
  s.put("b:1", {3});
  std::vector<std::string> seen;
  s.for_each_with_prefix("a:", [&seen](const std::string& key,
                                       const serial::Bytes& bytes) {
    seen.push_back(key + "=" + std::to_string(bytes[0]));
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "a:1=1");
  EXPECT_EQ(seen[1], "a:2=2");
}

TEST(QueueManagerTest, CommitAppliesStagedOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1));
  const TxId tx(100);
  qm.stage_remove(tx, 1);
  qm.stage_enqueue(tx, record(2));
  EXPECT_TRUE(qm.has_tx(tx));
  // Nothing applied until commit.
  EXPECT_EQ(s.queue().front().record_id, 1u);
  EXPECT_TRUE(qm.prepare(tx));
  qm.commit(tx);
  ASSERT_FALSE(s.queue_empty());
  EXPECT_EQ(s.queue().front().record_id, 2u);
  EXPECT_FALSE(qm.has_tx(tx));
}

TEST(QueueManagerTest, AbortDiscardsStagedOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1));
  const TxId tx(100);
  qm.stage_remove(tx, 1);
  qm.abort(tx);
  EXPECT_EQ(s.queue().front().record_id, 1u);
}

TEST(QueueManagerTest, PreparedStateSurvivesCrash) {
  StableStorage s;
  tx::QueueManager qm(s);
  const TxId prepared_tx(1);
  const TxId volatile_tx(2);
  qm.stage_enqueue(prepared_tx, record(10));
  qm.stage_enqueue(volatile_tx, record(20));
  EXPECT_TRUE(qm.prepare(prepared_tx));
  qm.on_crash();  // volatile staging evaporates, prepared reloads
  EXPECT_TRUE(qm.has_tx(prepared_tx));
  EXPECT_FALSE(qm.has_tx(volatile_tx));
  qm.commit(prepared_tx);
  ASSERT_FALSE(s.queue_empty());
  EXPECT_EQ(s.queue().front().record_id, 10u);
}

TEST(QueueManagerTest, RecordOpsGroupCommitWithQueueOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.enqueue(record(1));
  const TxId tx(100);
  qm.stage_remove(tx, 1);
  qm.stage_enqueue(tx, record(2));
  qm.stage_record_reset(tx, "agentimg:1", {1, 2});
  qm.stage_record_append(tx, "agentimg:1", {3});
  // Nothing visible before commit.
  EXPECT_FALSE(s.has_record("agentimg:1"));
  EXPECT_TRUE(qm.prepare(tx));
  qm.commit(tx);
  ASSERT_EQ(s.record_segment_count("agentimg:1"), 2u);
  EXPECT_EQ((*s.record_segments("agentimg:1"))[1], (serial::Bytes{3}));
  EXPECT_EQ(s.queue().front().record_id, 2u);
}

TEST(QueueManagerTest, AbortDiscardsRecordOps) {
  StableStorage s;
  tx::QueueManager qm(s);
  s.record_reset("agentimg:1", {1});
  const TxId tx(100);
  qm.stage_record_append(tx, "agentimg:1", {2});
  qm.stage_record_erase(tx, "agentimg:1");
  qm.abort(tx);
  EXPECT_EQ(s.record_segment_count("agentimg:1"), 1u);
}

TEST(QueueManagerTest, PreparedRecordOpsSurviveCrash) {
  StableStorage s;
  tx::QueueManager qm(s);
  const TxId tx(7);
  qm.stage_record_reset(tx, "agentimg:9", {1, 2, 3});
  qm.stage_record_append(tx, "agentimg:9", {4});
  EXPECT_TRUE(qm.prepare(tx));
  qm.on_crash();  // reloads the prepared staging, record ops included
  EXPECT_TRUE(qm.has_tx(tx));
  qm.commit(tx);
  ASSERT_EQ(s.record_segment_count("agentimg:9"), 2u);
  EXPECT_EQ((*s.record_segments("agentimg:9"))[0], (serial::Bytes{1, 2, 3}));
}

TEST(QueueManagerTest, CommitIsIdempotent) {
  StableStorage s;
  tx::QueueManager qm(s);
  const TxId tx(1);
  qm.stage_enqueue(tx, record(10));
  EXPECT_TRUE(qm.prepare(tx));
  qm.commit(tx);
  qm.commit(tx);  // duplicate decision delivery
  EXPECT_EQ(s.queue().size(), 1u);
}

// --------------------------------------------------------------------------
// TxManager: 2PC
// --------------------------------------------------------------------------

struct TxWorld {
  sim::Simulator sim;
  net::Network net{sim};
  struct Node {
    StableStorage storage;
    std::unique_ptr<tx::QueueManager> qm;
    std::unique_ptr<resource::ResourceManager> rm;
    std::unique_ptr<tx::TxManager> txm;
  };
  std::map<NodeId, Node> nodes;

  explicit TxWorld(int n) {
    for (int i = 1; i <= n; ++i) {
      const NodeId id(static_cast<std::uint32_t>(i));
      auto& node = nodes[id];
      node.qm = std::make_unique<tx::QueueManager>(node.storage);
      node.rm = std::make_unique<resource::ResourceManager>(node.storage);
      node.rm->add_resource("bank", std::make_unique<resource::Bank>());
      net.add_node(id);
      node.txm = std::make_unique<tx::TxManager>(id, sim, net, node.storage);
      node.txm->register_participant(*node.qm);
      node.txm->register_participant(*node.rm);
      net.subscribe_node_state([this, id](NodeId n2, bool up) {
        if (n2 != id) return;
        if (up) {
          nodes.at(id).txm->on_recover();
        } else {
          nodes.at(id).txm->on_crash();
        }
      });
    }
  }
  Node& n(int i) { return nodes.at(NodeId(static_cast<std::uint32_t>(i))); }
};

TEST(TxManagerTest, TxIdEncodesCoordinator) {
  const TxId tx = tx::make_tx_id(NodeId(7), 123);
  EXPECT_EQ(tx::coordinator_of(tx), NodeId(7));
}

TEST(TxManagerTest, LocalOnlyCommit) {
  TxWorld w(1);
  auto& n1 = w.n(1);
  const TxId tx = n1.txm->begin();
  n1.qm->stage_enqueue(tx, record(1));
  bool committed = false;
  n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
  w.sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(n1.storage.queue().size(), 1u);
  EXPECT_TRUE(n1.txm->idle());
}

bool holds_prepare_state(const StableStorage& s) {
  return !s.keys_with_prefix("prep.").empty() ||
         !s.keys_with_prefix("txprep:").empty();
}

TEST(TxManagerTest, LocalStepWritesOnlyItsCommitApply) {
  // A local step transaction: consume the claimed record, append the
  // agent's delta to its record-area image, enqueue the payload-less
  // successor and deposit into one account. Its participants are the
  // coordinator's own, so they persist no prepare: no prep.* record or
  // txprep: marker exists at any point, and the commit apply is the only
  // durable write — on the one-phase path and through the group flush.
  for (const std::uint32_t window : {1u, 4u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    TxWorld w(1);
    auto& n1 = w.n(1);
    n1.txm->set_group_commit(window, 100);
    serial::Value bank = n1.rm->committed_state("bank");
    serial::Value acct = serial::Value::empty_map();
    acct.set("balance", std::int64_t{0});
    acct.set("overdraft", false);
    bank.as_map().at("accounts").set("acct", std::move(acct));
    n1.rm->poke_state("bank", std::move(bank));
    n1.storage.enqueue(record(1));
    n1.storage.record_reset("agentimg:1", serial::Bytes(64, 0xB0));

    const TxId tx = n1.txm->begin();
    n1.qm->stage_remove(tx, 1);
    n1.qm->stage_record_append(tx, "agentimg:1", serial::Bytes(24, 0xD0));
    QueueRecord next = record(2);
    next.payload.clear();
    const std::uint64_t next_bytes = next.byte_size();
    n1.qm->stage_enqueue(tx, std::move(next));
    serial::Value deposit = serial::Value::empty_map();
    deposit.set("account", serial::Value("acct"));
    deposit.set("amount", std::int64_t{50});
    ASSERT_TRUE(n1.rm->invoke(tx, "bank", "deposit", deposit).is_ok());

    const auto& stats = n1.storage.stats();
    const std::uint64_t bytes_before = stats.bytes_written.load();
    const std::uint64_t kv_before = stats.kv_writes.load();
    const std::size_t area_before = n1.storage.record_area_bytes();
    bool committed = false;
    n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
    EXPECT_FALSE(holds_prepare_state(n1.storage));
    while (w.sim.step()) EXPECT_FALSE(holds_prepare_state(n1.storage));
    ASSERT_TRUE(committed);

    const auto& applied =
        n1.rm->committed_state("bank").at("accounts").at("acct");
    EXPECT_EQ(applied.at("balance").as_int(), 50);
    const std::string res_key = "res:bank/accounts/acct";
    const std::uint64_t res_bytes =
        res_key.size() + serial::to_bytes(applied).size();
    const std::uint64_t framed_op =
        n1.storage.record_area_bytes() - area_before;
    EXPECT_EQ(stats.bytes_written.load() - bytes_before,
              framed_op + next_bytes + res_bytes);
    EXPECT_EQ(stats.kv_writes.load() - kv_before, 1u);  // the res: put
    ASSERT_EQ(n1.storage.queue().size(), 1u);
    EXPECT_EQ(n1.storage.queue().front().record_id, 2u);
    EXPECT_TRUE(n1.txm->idle());
  }
}

TEST(TxManagerTest, CoordinatorHalfOfDistributedCommitAppliesAtDecision) {
  // The coordinator-local half of a distributed transaction persists no
  // prepare either: its first durable write is the decision's apply, on
  // the window-1 path (decide_commit) and through the decision flush.
  for (const std::uint32_t window : {1u, 4u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    TxWorld w(2);
    auto& n1 = w.n(1);
    auto& n2 = w.n(2);
    n1.txm->set_group_commit(window, 100);
    n1.storage.enqueue(record(1));
    const TxId tx = n1.txm->begin();
    n1.qm->stage_remove(tx, 1);
    n2.qm->stage_enqueue(tx, record(2));
    n2.txm->note_remote_staged(tx);
    n1.txm->enlist_remote(tx, NodeId(2));
    bool committed = false;
    n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
    while (w.sim.step()) {
      EXPECT_FALSE(holds_prepare_state(n1.storage));
      // Until the decision is durable the local half stays unapplied.
      if (!committed && n1.storage.keys_with_prefix("txdec:").empty()) {
        EXPECT_EQ(n1.storage.queue().size(), 1u);
      }
    }
    ASSERT_TRUE(committed);
    EXPECT_TRUE(n1.storage.queue_empty());
    EXPECT_EQ(n2.storage.queue().size(), 1u);
    EXPECT_TRUE(n1.txm->idle());
    EXPECT_TRUE(n2.txm->idle());
  }
}

TEST(TxManagerTest, DistributedCommitAppliesOnBothNodes) {
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n1.qm->stage_remove(tx, 99);  // no-op remove, still stages
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  bool committed = false;
  n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
  w.sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(n2.storage.queue().size(), 1u);
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, AbortDiscardsRemoteStaging) {
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->abort_tx(tx);
  w.sim.run();
  EXPECT_TRUE(n2.storage.queue_empty());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, ParticipantVotesNoWhenStagingLost) {
  // Participant crashed after staging but before prepare: its volatile
  // staging is gone, so it must vote NO and the commit must fail.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  // Crash + instant recovery wipes volatile staging.
  w.net.crash_node(NodeId(2));
  w.net.recover_node(NodeId(2));
  bool done = false;
  bool committed = true;
  n1.txm->commit_async(tx, [&](bool ok) {
    done = true;
    committed = ok;
  });
  w.sim.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(committed);
  EXPECT_TRUE(n2.storage.queue_empty());
}

TEST(TxManagerTest, CommitSurvivesParticipantCrashAfterPrepare) {
  // Once prepared, the participant must apply the decision after recovery
  // (coordinator re-drives COMMIT).
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));

  bool committed = false;
  n1.txm->commit_async(tx, [&](bool ok) { committed = ok; });
  // Let PREPARE/VOTE happen, then crash N2 just as COMMIT is in flight.
  w.sim.schedule_at(1'500, [&] { w.net.crash_node(NodeId(2)); });
  w.sim.schedule_at(400'000, [&] { w.net.recover_node(NodeId(2)); });
  w.sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(n2.storage.queue().size(), 1u);
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, PresumedAbortAfterCoordinatorCrash) {
  // Coordinator crashes before deciding: the prepared participant must
  // learn ABORT through its inquiry (presumed abort).
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->commit_async(tx, [](bool) {});
  // Crash the coordinator while votes are in flight; recover later.
  w.sim.schedule_at(700, [&] { w.net.crash_node(NodeId(1)); });
  w.sim.schedule_at(600'000, [&] { w.net.recover_node(NodeId(1)); });
  w.sim.run();
  EXPECT_TRUE(n2.storage.queue_empty());  // aborted, nothing applied
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, CoordinatorCrashBetweenDecideAndFlush) {
  // Pipelined coordinator: all votes are in and the decision sits in the
  // decision queue awaiting its batched durability flush. A crash before
  // the flush persisted nothing — no txdec: record exists — so the
  // prepared participant's inquiry must resolve to presumed abort and
  // both sides converge with nothing applied.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  n1.txm->set_group_commit(8, 50'000);  // long dwell: decision stays queued
  n2.txm->set_group_commit(1, 0);       // participant votes immediately
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->commit_async(tx, [](bool) {});
  // The vote is back ~2 round trips in; the decision then dwells in the
  // queue until the 50 ms flush timer. Crash the coordinator inside that
  // window, long before the flush.
  w.sim.schedule_at(10'000, [&] { w.net.crash_node(NodeId(1)); });
  w.sim.schedule_at(600'000, [&] { w.net.recover_node(NodeId(1)); });
  w.sim.run();
  EXPECT_TRUE(n1.storage.keys_with_prefix("txdec:").empty());
  EXPECT_TRUE(n2.storage.queue_empty());  // presumed abort discarded staging
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, DecisionQueueSharesOneCoordinatorSync) {
  // Four distributed commits decided in one same-instant burst flush
  // under ONE coordinator sync, with the inflight gauge peaking at 4.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  n1.txm->set_group_commit(4, 1'000);
  n2.txm->set_group_commit(4, 100);
  int committed = 0;
  for (int i = 0; i < 4; ++i) {
    const TxId tx = n1.txm->begin();
    n2.qm->stage_enqueue(tx, record(1 + i));
    n2.txm->note_remote_staged(tx);
    n1.txm->enlist_remote(tx, NodeId(2));
    n1.txm->commit_async(tx, [&](bool ok) { committed += ok ? 1 : 0; });
  }
  w.sim.run();
  EXPECT_EQ(committed, 4);
  EXPECT_EQ(n2.storage.queue().size(), 4u);
  EXPECT_EQ(n1.txm->stats().coordinator_syncs.load(), 1u);
  EXPECT_EQ(n1.txm->stats().pipeline_depth_max.load(), 4u);
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
}

TEST(TxManagerTest, GroupFlushCallbackMayStartTheNextCommit) {
  // A completion callback delivered from the batched local flush
  // immediately begins and commits the next transaction — re-entering
  // the manager from inside its own flush loop must be safe.
  TxWorld w(1);
  auto& n1 = w.n(1);
  n1.txm->set_group_commit(2, 100);
  int committed = 0;
  const TxId t1 = n1.txm->begin();
  n1.qm->stage_enqueue(t1, record(1));
  n1.txm->commit_async(t1, [&](bool ok) {
    committed += ok ? 1 : 0;
    const TxId t3 = n1.txm->begin();
    n1.qm->stage_enqueue(t3, record(3));
    n1.txm->commit_async(t3, [&](bool ok2) { committed += ok2 ? 1 : 0; });
  });
  const TxId t2 = n1.txm->begin();
  n1.qm->stage_enqueue(t2, record(2));
  n1.txm->commit_async(t2, [&](bool ok) { committed += ok ? 1 : 0; });
  w.sim.run();
  EXPECT_EQ(committed, 3);
  EXPECT_EQ(n1.storage.queue().size(), 3u);
  EXPECT_TRUE(n1.txm->idle());
}

TEST(TxManagerTest, DecisionRecordRedrivenAfterCoordinatorCrash) {
  // Coordinator crashes right after persisting the commit decision: on
  // recovery it must re-drive COMMIT from the decision record.
  TxWorld w(2);
  auto& n1 = w.n(1);
  auto& n2 = w.n(2);
  const TxId tx = n1.txm->begin();
  n2.qm->stage_enqueue(tx, record(5));
  n2.txm->note_remote_staged(tx);
  n1.txm->enlist_remote(tx, NodeId(2));
  n1.txm->commit_async(tx, [](bool) {});
  // Prepare round trip takes ~2 * (latency + ack); crash shortly after the
  // decision should have been persisted but before acks return.
  w.sim.schedule_at(2'100, [&] { w.net.crash_node(NodeId(1)); });
  w.sim.schedule_at(500'000, [&] { w.net.recover_node(NodeId(1)); });
  w.sim.run();
  // Whatever the exact crash interleaving, the protocol must converge with
  // both sides idle and consistent: either both applied or neither.
  EXPECT_TRUE(n1.txm->idle());
  EXPECT_TRUE(n2.txm->idle());
  if (n1.storage.keys_with_prefix("txdec:").empty() &&
      !n2.storage.queue_empty()) {
    SUCCEED();  // committed everywhere
  } else {
    EXPECT_TRUE(n2.storage.queue_empty());  // aborted everywhere
  }
}

}  // namespace
}  // namespace mar
