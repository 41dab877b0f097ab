// Delta-shipping migration subsystem (src/ship/): transfer-channel
// base+delta caching, full-image fallback (cache miss, epoch mismatch,
// unprofitable delta), convoy batching with participant-side sync
// coalescing, and exactly-once + bit-identical reconstruction under
// mid-transfer crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "rollback/log.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "ship/shipment_manager.h"
#include "storage/stable_storage.h"
#include "tx/tx_manager.h"
#include "util/rng.h"

namespace mar {
namespace {

using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using harness::TestWorld;
using harness::WorkloadAgent;
using harness::register_workload;

/// `age` warm-up steps on N1, then `hops` steps alternating N2/N1 —
/// the locality-heavy shape whose migrations delta-shipping compresses.
Itinerary ping_pong(int age, int hops) {
  Itinerary sub;
  for (int s = 0; s < age; ++s) sub.step("spend_logged", TestWorld::n(1));
  for (int h = 0; h < hops; ++h) {
    sub.step("spend_logged", TestWorld::n(h % 2 == 0 ? 2 : 1));
  }
  Itinerary main_it;
  main_it.sub(std::move(sub));
  return main_it;
}

struct RunOutcome {
  bool done = false;
  std::int64_t visits = 0;
  serial::Bytes final_agent;
  std::uint64_t convoy_bytes = 0;
  /// Steps that ran from a resident agent (an incremental commit's or a
  /// delta migration's handoff) instead of a decode, over both nodes.
  std::uint64_t resident_hits = 0;
  /// Resident agents still held once the world went quiet.
  std::size_t resident_left = 0;
  std::uint64_t delta_ships = 0;
  std::uint64_t delta_fallbacks = 0;
  /// Channel base bytes still cached once the world went quiet.
  std::size_t cached_base_bytes = 0;
  /// N2 steps that ran from a resident agent. N2 never runs two steps in
  /// a row, so each is a receiver handoff of a delta migration.
  std::uint64_t n2_handoffs = 0;
};

std::uint64_t resident_hits(agent::NodeRuntime& node) {
  return node.metrics_snapshot().scalars.at("agent.resident_hits");
}

/// One agent through ping_pong(age, hops) under `cfg`; `crash_seed` != 0
/// additionally injects a deterministic schedule of transient crashes on
/// both nodes (identical schedule for identical seeds).
RunOutcome run_ping_pong(PlatformConfig cfg, int age, int hops,
                         std::uint64_t crash_seed = 0) {
  cfg.discard_log_on_top_level = false;  // the aged log is the point
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/11);
  register_workload(w.platform);
  if (crash_seed != 0) {
    Rng rng(crash_seed);
    for (int k = 0; k < 6; ++k) {
      const NodeId node = TestWorld::n(1 + static_cast<int>(k % 2));
      const sim::TimeUs at = 2'000 + rng.next_below(150'000);
      const sim::TimeUs downtime = 1'000 + rng.next_below(15'000);
      w.faults.crash_at(node, at, downtime);
    }
  }
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(age, hops);
  ag->set_config("param_bytes", 64);
  auto id = w.platform.launch(std::move(ag));
  EXPECT_TRUE(id.is_ok());
  RunOutcome out;
  out.done = w.platform.run_until_finished(id.value()) &&
             w.platform.outcome(id.value()).state ==
                 AgentOutcome::State::done;
  if (out.done) {
    const auto& oc = w.platform.outcome(id.value());
    out.final_agent = oc.final_agent;
    auto fin = w.platform.decode(oc.final_agent);
    out.visits = fin->data().weak("visits").as_int();
  }
  out.convoy_bytes = w.net.stats().bytes_of(net::MsgType::ship_convoy);
  // Quiesce: every staging, inquiry and recovery resolves.
  w.sim.run();
  for (const int n : {1, 2}) {
    auto& node = w.platform.node(TestWorld::n(n));
    out.resident_hits += resident_hits(node);
    out.resident_left += node.scheduler().resident_agents();
    out.delta_ships += node.shipments().stats().delta_ships;
    out.delta_fallbacks += node.shipments().stats().delta_fallbacks;
    out.cached_base_bytes += node.shipments().cached_base_bytes();
  }
  out.n2_handoffs = resident_hits(w.platform.node(TestWorld::n(2)));
  return out;
}

// --------------------------------------------------------------------------
// encode_agent_delta_between (unit)
// --------------------------------------------------------------------------

TEST(DeltaBetweenTest, RoundTripsToBitIdenticalImage) {
  TestWorld w;
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(2, 2);
  const auto base_bytes = agent::encode_agent(*ag);

  // Arbitrary forward progress: weak/strong slots change, log appends.
  ag->data().weak("cash") = std::int64_t{58};
  ag->data().strong("results").push_back(std::string("r1"));
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "step"});
  rollback::EndOfStepEntry eos;
  eos.node = TestWorld::n(1);
  ag->log().push(std::move(eos));
  const auto cur_bytes = agent::encode_agent(*ag);

  const auto base = w.platform.decode(base_bytes);
  const auto cur = w.platform.decode(cur_bytes);
  const auto delta = agent::encode_agent_delta_between(*base, *cur);
  ASSERT_TRUE(delta.has_value());
  EXPECT_LT(delta->size(), cur_bytes.size());

  auto rebuilt = w.platform.decode(base_bytes);
  agent::apply_agent_delta(*rebuilt, *delta);
  EXPECT_EQ(agent::encode_agent(*rebuilt), cur_bytes);
}

// A slot whose only change is the sign of a zero is a changed slot: the
// receiver's rebuilt image equals the sender's byte for byte.
TEST(DeltaBetweenTest, SignedZeroChangeShipsAndRebuildsBitIdentical) {
  TestWorld w;
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(1, 1);
  ag->data().declare_weak("balance", 0.0);
  ag->data().declare_strong("rate", -0.0);
  const auto base_bytes = agent::encode_agent(*ag);
  ag->data().weak("balance") = -0.0;
  ag->data().strong("rate") = 0.0;
  const auto cur_bytes = agent::encode_agent(*ag);
  ASSERT_NE(base_bytes, cur_bytes);

  const auto base = w.platform.decode(base_bytes);
  const auto cur = w.platform.decode(cur_bytes);
  const auto delta = agent::encode_agent_delta_between(*base, *cur);
  ASSERT_TRUE(delta.has_value());
  auto rebuilt = w.platform.decode(base_bytes);
  agent::apply_agent_delta(*rebuilt, *delta);
  EXPECT_EQ(agent::encode_agent(*rebuilt), cur_bytes);
}

TEST(DeltaBetweenTest, DivergedLogRefusesDelta) {
  TestWorld w;
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(1, 1);
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "a"});
  const auto base_bytes = agent::encode_agent(*ag);
  // A rollback popped the base's entry and pushed something else: the
  // base log is no longer a prefix.
  (void)ag->log().pop();
  ag->log().push(rollback::BeginOfStepEntry{TestWorld::n(2), "b"});
  const auto cur_bytes = agent::encode_agent(*ag);
  const auto base = w.platform.decode(base_bytes);
  const auto cur = w.platform.decode(cur_bytes);
  EXPECT_FALSE(agent::encode_agent_delta_between(*base, *cur).has_value());
  // Shorter-than-base logs refuse as well.
  (void)ag->log().pop();
  const auto shorter = w.platform.decode(agent::encode_agent(*ag));
  EXPECT_FALSE(
      agent::encode_agent_delta_between(*base, *shorter).has_value());
}

// --------------------------------------------------------------------------
// End-to-end delta shipping
// --------------------------------------------------------------------------

TEST(ShipTest, DeltaShippingMatchesFullImagesBitForBit) {
  PlatformConfig delta_cfg;
  PlatformConfig full_cfg;
  full_cfg.ship_cache_bytes = 0;  // no base is ever cached: full images
  const auto delta_run = run_ping_pong(delta_cfg, 32, 12);
  const auto full_run = run_ping_pong(full_cfg, 32, 12);
  ASSERT_TRUE(delta_run.done);
  ASSERT_TRUE(full_run.done);
  EXPECT_EQ(delta_run.visits, 32 + 12);  // exactly once each
  EXPECT_EQ(delta_run.final_agent, full_run.final_agent);
  // The zero-budget run is the full-image reference: it never diffs,
  // never holds a base and never hands an agent to a receiver.
  EXPECT_EQ(full_run.delta_ships, 0u);
  EXPECT_EQ(full_run.delta_fallbacks, 0u);
  EXPECT_EQ(full_run.cached_base_bytes, 0u);
  EXPECT_EQ(full_run.n2_handoffs, 0u);
  EXPECT_GT(delta_run.delta_ships, 0u);
  EXPECT_GT(delta_run.n2_handoffs, 0u);
  // The aged log rides every full image but only once per channel here.
  EXPECT_LT(delta_run.convoy_bytes * 2, full_run.convoy_bytes);
}

TEST(ShipTest, ChannelsActuallyShipDeltas) {
  PlatformConfig cfg;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(8, 10);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  const auto& s2 = w.platform.node(TestWorld::n(2)).shipments().stats();
  // First crossing of each channel establishes the base; every later hop
  // ships a delta.
  EXPECT_EQ(s1.full_images + s2.full_images, 2u);
  EXPECT_EQ(s1.delta_ships + s2.delta_ships, 8u);
  EXPECT_EQ(s1.need_full_retries + s2.need_full_retries, 0u);
  // The receivers materialized full images out of small deltas.
  const auto& st2 = w.platform.node(TestWorld::n(2)).storage().stats();
  EXPECT_GT(st2.ship_bytes_reconstructed, st2.ship_bytes_received);
}

TEST(ShipTest, TinyCacheFallsBackToFullImages) {
  PlatformConfig cfg;
  cfg.ship_cache_bytes = 16;  // nothing fits: every base is evicted
  const auto run = run_ping_pong(cfg, 8, 10);
  ASSERT_TRUE(run.done);
  EXPECT_EQ(run.visits, 18);
}

TEST(ShipTest, ZeroRatioNeverShipsDeltas) {
  PlatformConfig cfg;
  cfg.ship_delta_max_ratio = 0.0;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(4, 6);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  const auto& s2 = w.platform.node(TestWorld::n(2)).shipments().stats();
  EXPECT_EQ(s1.delta_ships + s2.delta_ships, 0u);
  EXPECT_GT(s1.delta_fallbacks + s2.delta_fallbacks, 0u);
}

TEST(ShipTest, ReceiverCrashForcesFullResync) {
  PlatformConfig cfg;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  // Wipe N2's receive cache mid-run — while an N1->N2 delta convoy is in
  // flight, so the transfer times out and is retried under a fresh
  // transaction. The retried delta references a base (and channel epoch)
  // N2 no longer has — answered need_full, and the channel re-establishes
  // itself with a full image. (With the piggybacked PREPARE a convoy is
  // one round trip, so the crash must intercept the convoy itself; there
  // is no separate stage-ack window any more.)
  w.faults.crash_at(TestWorld::n(2), 38'500, 5'000);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(8, 16);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(fin->data().weak("visits").as_int(), 24);  // exactly once
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  EXPECT_GE(s1.need_full_retries, 1u);
}

TEST(ImageHashTest, EqualBytesHashEqualAndAnyBitFlipChangesTheHash) {
  Rng rng(9);
  // Every tail length after the 32-byte blocks (0-40 covers the empty
  // input, each whole-word count and each partial word, inside and after
  // a first block), then sizes of real images up to 4 KiB.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 40; ++len) lengths.push_back(len);
  for (const std::size_t len : {64u, 301u, 4096u}) lengths.push_back(len);
  for (const std::size_t len : lengths) {
    serial::Bytes bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto h = ship::image_hash(bytes);
    EXPECT_EQ(ship::image_hash(serial::Bytes(bytes)), h);
    // Each lane round and each step of the final fold is a bijection, so
    // a change confined to one 8-byte word always changes the hash.
    auto flipped = bytes;
    for (std::size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        const auto mask = static_cast<std::uint8_t>(1u << bit);
        flipped[i] ^= mask;
        EXPECT_NE(ship::image_hash(flipped), h) << len << "/" << i;
        flipped[i] ^= mask;
      }
    }
    auto longer = bytes;
    longer.push_back(0);
    EXPECT_NE(ship::image_hash(longer), h) << len;
  }
}

using statuses_t = std::vector<std::uint8_t>;

/// A hand-driven peer N3 that ships one agent (id 77) to N2 as raw convoy
/// entries. Entry layout (ShipmentManager::encode_frame): u64 tx, u8 mode
/// (0 full, 1 delta), the queue record; a delta entry then carries the
/// base's channel epoch and hash and the delta blob. Every staged entry is
/// also the transaction's PREPARE, so N2 votes on it; the peer ignores the
/// votes. It records N2's per-entry ack statuses and counts its 2PC
/// inquiries; it answers them with a presumed abort once
/// `answer_inquiries` is set, and stays silent before.
class HandDrivenSender {
 public:
  static constexpr std::uint8_t kStaged = 0;
  static constexpr std::uint8_t kNeedFull = 1;

  HandDrivenSender() : w(PlatformConfig{}, /*node_count=*/2, /*seed=*/11) {
    register_workload(w.platform);
    w.net.add_node(kPeer);
    w.net.on(kPeer, net::MsgType::ship_convoy_ack,
             [this](const net::Message& m) { on_convoy_ack(m); });
    w.net.on(kPeer, net::MsgType::tx_inquiry,
             [this](const net::Message& m) { on_inquiry(m); });
    w.net.on(kPeer, net::MsgType::tx_vote, [](const net::Message&) {});
    WorkloadAgent ag;
    ag.set_id(AgentId(77));
    ag.itinerary() = ping_pong(1, 1);
    base_image = agent::encode_agent(ag);
    ag.data().weak("cash") = std::int64_t{5};
    ag.log().push(rollback::BeginOfStepEntry{TestWorld::n(1), "step"});
    cur_image = agent::encode_agent(ag);
    delta = *agent::encode_agent_delta_between(
        *w.platform.decode(base_image), *w.platform.decode(cur_image));
  }

  /// Ship the full base image, or the base -> current delta naming
  /// `base_hash`; then deliver the ack. Returns the entry's transaction.
  TxId ship(bool as_delta, std::uint64_t base_hash = 0) {
    auto& receiver = w.platform.node(kReceiver).shipments();
    storage::QueueRecord rec;
    rec.record_id = next_tx_;
    rec.agent = AgentId(77);
    if (!as_delta) rec.payload = base_image;
    const TxId tx((std::uint64_t{3} << 40) | next_tx_++);  // N3 coordinates
    serial::Encoder entry;
    entry.write_u64(tx.value());
    entry.write_u8(as_delta ? 1 : 0);
    rec.serialize(entry);
    if (as_delta) {
      entry.write_u64(receiver.channel_epoch());
      entry.write_u64(base_hash);
      entry.write_bytes(delta);
    }
    serial::Encoder convoy;
    convoy.write_u64(w.sim.now());
    convoy.write_varint(1);
    convoy.write_bytes(entry.buffer());
    receiver.on_convoy(net::Message{kPeer, kReceiver,
                                    net::MsgType::ship_convoy,
                                    std::move(convoy).take()});
    w.sim.run_until(w.sim.now() + 20'000);  // deliver the ack
    return tx;
  }

  /// The coordinator aborts `tx` at N2 (tx.abort).
  void abort(TxId tx) {
    w.net.send(
        net::Message{kPeer, kReceiver, net::MsgType::tx_abort, tx_bytes(tx)});
    w.sim.run_until(w.sim.now() + 20'000);
  }

  /// The coordinator re-drives an explicit PREPARE for `tx` (tx.prepare).
  void prepare(TxId tx) {
    w.net.send(net::Message{kPeer, kReceiver, net::MsgType::tx_prepare,
                            tx_bytes(tx)});
    w.sim.run_until(w.sim.now() + 20'000);
  }

  [[nodiscard]] std::size_t handoffs() {
    return w.platform.node(kReceiver).scheduler().resident_agents();
  }

  static inline const NodeId kPeer = TestWorld::n(3);
  static inline const NodeId kReceiver = TestWorld::n(2);
  TestWorld w;
  serial::Bytes base_image;
  serial::Bytes cur_image;
  serial::Bytes delta;
  std::vector<std::uint8_t> statuses;
  std::uint64_t inquiries = 0;
  bool answer_inquiries = false;

 private:
  /// The tx.* message body: u64 tx, bool flag.
  static serial::Bytes tx_bytes(TxId tx, bool flag = false) {
    serial::Encoder enc(9);
    enc.write_u64(tx.value());
    enc.write_bool(flag);
    return std::move(enc).take();
  }

  void on_convoy_ack(const net::Message& m) {
    serial::Decoder dec(m.payload);
    (void)dec.read_u64();  // receiver channel epoch
    for (auto n = dec.read_count(); n > 0; --n) {
      (void)dec.read_u64();  // tx
      statuses.push_back(dec.read_u8());
    }
  }

  void on_inquiry(const net::Message& m) {
    ++inquiries;
    if (!answer_inquiries) return;
    // No decision record at this coordinator: presumed abort.
    serial::Decoder dec(m.payload);
    w.net.send(net::Message{kPeer, m.from, net::MsgType::tx_decision,
                            tx_bytes(TxId(dec.read_u64()), false)});
  }

  std::uint64_t next_tx_ = 1;
};

TEST(ShipTest, BaseHashDivergenceIsAnsweredWithNeedFull) {
  // A full frame establishes the channel base, then delta frames against
  // it name the base's hash. A diverged hash must be answered need_full
  // instead of reconstructing from the wrong base; the true hash
  // reconstructs.
  HandDrivenSender peer;
  const auto& base_image = peer.base_image;
  peer.ship(false);
  peer.ship(true, ship::image_hash(base_image) ^ 1);
  peer.ship(true, ship::image_hash(base_image));
  EXPECT_EQ(statuses_t(peer.statuses),
            statuses_t({HandDrivenSender::kStaged, HandDrivenSender::kNeedFull,
                        HandDrivenSender::kStaged}));
  // Only the full frame and the matching delta reached storage, the
  // latter reconstructed to the sender's current image.
  const auto& st =
      peer.w.platform.node(HandDrivenSender::kReceiver).storage().stats();
  EXPECT_EQ(st.ship_bytes_received, base_image.size() + peer.delta.size());
  EXPECT_EQ(st.ship_bytes_reconstructed,
            base_image.size() + peer.cur_image.size());
}

TEST(ShipTest, InDoubtParticipantRunsOneInquiryChain) {
  // N2 stages a convoy entry (which is its PREPARE), votes YES, and then
  // sees the coordinator re-drive the PREPARE. The coordinator stays
  // silent, so N2 is in doubt; however often it was staged or prepared,
  // it asks once per inquiry interval.
  HandDrivenSender peer;
  const TxId tx = peer.ship(false);
  peer.prepare(tx);
  const auto before = peer.inquiries;
  peer.w.sim.run_until(peer.w.sim.now() + 1'000'000);
  EXPECT_EQ(peer.inquiries - before, 5u);  // 1 s / 200 ms, one chain
}

TEST(HandoffTest, NoHandoffOutlivesItsStaging) {
  // A delta staging hands N2 the reconstructed agent (a full frame does
  // not); every way the staging can end without executing drops it.
  HandDrivenSender peer;
  const auto base_hash = ship::image_hash(peer.base_image);
  peer.ship(false);
  EXPECT_EQ(peer.handoffs(), 0u);
  const auto aborted = peer.ship(true, base_hash);
  EXPECT_EQ(peer.handoffs(), 1u);
  peer.abort(aborted);  // the coordinator aborts the staging
  EXPECT_EQ(peer.handoffs(), 0u);

  peer.ship(false);
  peer.ship(true, base_hash);
  EXPECT_EQ(peer.handoffs(), 1u);
  // The coordinator never decides: N2's inquiries resolve the staging as
  // presumed abort.
  peer.answer_inquiries = true;
  peer.w.sim.run_until(peer.w.sim.now() + 1'000'000);
  EXPECT_EQ(peer.handoffs(), 0u);

  peer.ship(false);
  peer.ship(true, base_hash);
  EXPECT_EQ(peer.handoffs(), 1u);
  peer.w.faults.crash_at(HandDrivenSender::kReceiver, peer.w.sim.now(),
                         5'000);
  peer.w.sim.run();  // crash, recover, quiesce
  EXPECT_EQ(peer.handoffs(), 0u);
  EXPECT_EQ(std::count(peer.statuses.begin(), peer.statuses.end(),
                       HandDrivenSender::kStaged),
            6);
}

// --------------------------------------------------------------------------
// Convoy batching + participant-side sync coalescing
// --------------------------------------------------------------------------

/// `fleet` agents, each one spend_logged step on N1 then one on N2.
/// Returns (convoys, entries, syncs at the participant N2).
struct ConvoyCounts {
  std::uint64_t convoys = 0;
  std::uint64_t entries = 0;
  std::uint64_t participant_syncs = 0;
  bool ok = false;
};

ConvoyCounts run_fleet_migration(std::uint32_t convoy_window,
                                 std::uint32_t commit_window) {
  PlatformConfig cfg;
  cfg.node_concurrency = 4;
  cfg.ship_convoy_window = convoy_window;
  cfg.group_commit_window = commit_window;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  std::vector<AgentId> ids;
  for (int a = 0; a < 6; ++a) {
    auto ag = std::make_unique<WorkloadAgent>();
    Itinerary sub;
    sub.step("spend_logged", TestWorld::n(1));
    sub.step("spend_logged", TestWorld::n(2));
    Itinerary main_it;
    main_it.sub(std::move(sub));
    ag->itinerary() = std::move(main_it);
    auto id = w.platform.launch(std::move(ag));
    EXPECT_TRUE(id.is_ok());
    ids.push_back(id.value());
  }
  ConvoyCounts c;
  c.ok = w.platform.run_until_all_finished(ids);
  for (const auto id : ids) {
    c.ok = c.ok &&
           w.platform.outcome(id).state == AgentOutcome::State::done;
  }
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  c.convoys = s1.convoys_sent;
  c.entries = s1.entries_sent;
  c.participant_syncs =
      w.platform.node(TestWorld::n(2)).storage().stats().sync_batches;
  return c;
}

TEST(ShipTest, ConvoyWindowBatchesTransfersAndCoalescesSyncs) {
  const auto solo = run_fleet_migration(1, 1);
  const auto batched = run_fleet_migration(4, 4);
  ASSERT_TRUE(solo.ok);
  ASSERT_TRUE(batched.ok);
  EXPECT_EQ(solo.entries, 6u);
  EXPECT_EQ(batched.entries, 6u);
  EXPECT_EQ(solo.convoys, 6u);
  EXPECT_LT(batched.convoys, batched.entries);
  // Participant-side group commit: prepares/applies of one convoy share
  // their syncs — at least the required 2x reduction.
  EXPECT_LE(batched.participant_syncs * 2, solo.participant_syncs);
}

TEST(ShipTest, ConvoySlowerThanThePrepareRedriveStillCommits) {
  // On an 80 kbit/s link every convoy of this agent spends more than one
  // PREPARE re-drive interval (200 ms) on the wire. The re-drive must not
  // overtake the convoy with an explicit PREPARE: the receiver has nothing
  // staged yet, would vote NO, and every retry would end the same way.
  PlatformConfig cfg;  // default group-commit window
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/11);
  register_workload(w.platform);
  w.net.set_link(TestWorld::n(1), TestWorld::n(2),
                 net::LinkParams{/*latency_us=*/500,
                                 /*bandwidth_bytes_per_us=*/0.01});
  constexpr int kHops = 4;
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(1, kHops);
  ag->set_config("param_bytes", 4096);  // each hop's delta carries >4 KB
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  const auto wire = w.net.transfer_time(TestWorld::n(1), TestWorld::n(2),
                                        std::size_t{4096});
  ASSERT_GT(wire, 200'000);
  const sim::TimeUs bound = 60'000'000;  // 1 min of simulated time
  while (!w.platform.finished(id.value()) && w.sim.now() < bound &&
         w.sim.step()) {
  }
  ASSERT_TRUE(w.platform.finished(id.value()))
      << "agent still running at " << w.sim.now() << " us";
  ASSERT_EQ(w.platform.outcome(id.value()).state, AgentOutcome::State::done);
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  EXPECT_EQ(fin->data().weak("visits").as_int(), 1 + kHops);  // exactly once
  // Every hop migrated once: no hop was aborted and shipped again.
  std::uint64_t hop_migrations = 0;
  for (const auto& e : w.platform.spans().of_kind(EventKind::migrate)) {
    if (e.code == static_cast<std::uint8_t>(MigrateCause::step)) {
      ++hop_migrations;
    }
  }
  EXPECT_EQ(hop_migrations, static_cast<std::uint64_t>(kHops));
  // Nor was any message resent while its first copy was still on the
  // wire: the retransmit interval covers the slow link's round trip.
  w.sim.run();
  EXPECT_EQ(w.net.stats().transmissions, w.net.stats().messages_sent);
}

// --------------------------------------------------------------------------
// Mid-transfer crashes (randomized, 3 seeds)
// --------------------------------------------------------------------------

TEST(ShipTest, MidTransferCrashesStayExactlyOnceAndBitIdentical) {
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    PlatformConfig delta_cfg;
    delta_cfg.ship_convoy_window = 2;  // convoys in flight when killed
    PlatformConfig full_cfg = delta_cfg;
    full_cfg.ship_cache_bytes = 0;
    const auto delta_run = run_ping_pong(delta_cfg, 8, 16, seed);
    const auto full_run = run_ping_pong(full_cfg, 8, 16, seed);
    ASSERT_TRUE(delta_run.done) << "seed " << seed;
    ASSERT_TRUE(full_run.done) << "seed " << seed;
    // Exactly-once arrival: every step committed exactly once despite
    // destination crashes between convoy receipt and participant flush.
    EXPECT_EQ(delta_run.visits, 24) << "seed " << seed;
    EXPECT_EQ(full_run.visits, 24) << "seed " << seed;
    // Bit-identical reconstruction: the delta-shipped agent's final
    // state equals the full-image run's, byte for byte.
    EXPECT_EQ(delta_run.final_agent, full_run.final_agent)
        << "seed " << seed;
    // Delta hops ran from handed-off agents, and after quiesce none
    // outlives its record: crashes and aborted stagings dropped theirs.
    EXPECT_GT(delta_run.resident_hits, full_run.resident_hits)
        << "seed " << seed;
    EXPECT_EQ(delta_run.resident_left, 0u) << "seed " << seed;
    EXPECT_EQ(full_run.resident_left, 0u) << "seed " << seed;
  }
}

TEST(ShipTest, PipelinedCommitCrashesStayExactlyOnceAndBitIdentical) {
  // Same randomized kill schedule, with the full pipeline live: convoy
  // window 4 carries piggybacked PREPAREs and the coordinator's decision
  // queue batches its syncs. Kills now land between decide and flush
  // (queued decisions presumed-abort) as well as mid-convoy; exactly-once
  // arrival and bit-identical reconstruction must survive regardless.
  for (const std::uint64_t seed : {404u, 505u, 707u}) {
    PlatformConfig delta_cfg;
    delta_cfg.ship_convoy_window = 4;  // default group window 4: pipelined
    PlatformConfig full_cfg = delta_cfg;
    full_cfg.ship_cache_bytes = 0;
    const auto delta_run = run_ping_pong(delta_cfg, 8, 16, seed);
    const auto full_run = run_ping_pong(full_cfg, 8, 16, seed);
    ASSERT_TRUE(delta_run.done) << "seed " << seed;
    ASSERT_TRUE(full_run.done) << "seed " << seed;
    EXPECT_EQ(delta_run.visits, 24) << "seed " << seed;
    EXPECT_EQ(full_run.visits, 24) << "seed " << seed;
    EXPECT_EQ(delta_run.final_agent, full_run.final_agent)
        << "seed " << seed;
    EXPECT_GT(delta_run.resident_hits, full_run.resident_hits)
        << "seed " << seed;
    EXPECT_EQ(delta_run.resident_left, 0u) << "seed " << seed;
    EXPECT_EQ(full_run.resident_left, 0u) << "seed " << seed;
  }
}

// --------------------------------------------------------------------------
// Receiver handoff: the reconstructed agent runs the staged record's step
// --------------------------------------------------------------------------

/// What ProbeAgent observed across one run.
struct ProbeLog {
  /// encode_agent() of every step attempt's starting state, in order.
  std::vector<serial::Bytes> images;
  /// Abort the first attempt of every step on N2 (StepContext::
  /// retry_step): the attempt takes the handoff, the retry decodes.
  bool abort_first_n2_attempt = false;
  bool n2_attempt_aborted = false;
};
ProbeLog* g_probe = nullptr;

/// Records the state each step attempt starts from, then spends: one
/// visit, one logged agent compensation (so deltas carry log entries).
class ProbeAgent final : public agent::Agent {
 public:
  ProbeAgent() { data().declare_weak("visits", std::int64_t{0}); }
  [[nodiscard]] std::string type_name() const override { return "probe"; }
  void run_step(const std::string& step, agent::StepContext& ctx) override {
    (void)step;
    g_probe->images.push_back(agent::encode_agent(*this));
    if (g_probe->abort_first_n2_attempt && ctx.node() == TestWorld::n(2)) {
      g_probe->n2_attempt_aborted = !g_probe->n2_attempt_aborted;
      if (g_probe->n2_attempt_aborted) {
        ctx.retry_step(Status(Errc::tx_aborted, "injected abort"));
        return;
      }
    }
    ctx.charge_service(1);
    data().weak("visits") = data().weak("visits").as_int() + 1;
    serial::Value undo = serial::Value::empty_map();
    undo.set("slot", std::string("visits"));
    undo.set("amount", std::int64_t{-1});
    ctx.log_agent_compensation("comp.counter_add", std::move(undo));
  }
};

enum class Inject { none, abort_after_handoff, crash_before_execution };

struct ProbeRun {
  bool done = false;
  std::int64_t visits = 0;
  serial::Bytes final_agent;
  std::vector<serial::Bytes> images;
  std::uint64_t n2_hits = 0;  ///< N2 steps run from a handed-off agent
  std::uint64_t n1_delta_ships = 0;
  std::size_t resident_left = 0;
};

/// A ProbeAgent through ping_pong(2, 8) (hops N1 -> N2 -> N1 ...);
/// without `delta`, no channel caches a base and every hop is a full image.
ProbeRun run_probe(bool delta, Inject inject) {
  PlatformConfig cfg;
  if (!delta) cfg.ship_cache_bytes = 0;
  cfg.discard_log_on_top_level = false;
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/11);
  register_workload(w.platform);
  w.platform.agent_types().register_type<ProbeAgent>("probe");
  ProbeLog log;
  log.abort_first_n2_attempt = inject == Inject::abort_after_handoff;
  g_probe = &log;
  auto ag = std::make_unique<ProbeAgent>();
  ag->itinerary() = ping_pong(2, 8);
  auto id = w.platform.launch(std::move(ag));
  EXPECT_TRUE(id.is_ok());
  auto& n2 = w.platform.node(TestWorld::n(2));
  if (inject == Inject::crash_before_execution) {
    // Crash N2 the moment a delta staging hands it an agent, before the
    // staged record can commit and execute.
    while (n2.scheduler().resident_agents() == 0 && w.sim.step()) {
    }
    EXPECT_EQ(n2.scheduler().resident_agents(), 1u);
    w.faults.crash_at(TestWorld::n(2), w.sim.now(), 5'000);
    w.sim.run_until(w.sim.now());
    // Volatile: gone with the crash.
    EXPECT_EQ(n2.scheduler().resident_agents(), 0u);
  }
  ProbeRun out;
  out.done = w.platform.run_until_finished(id.value()) &&
             w.platform.outcome(id.value()).state ==
                 AgentOutcome::State::done;
  if (out.done) {
    out.final_agent = w.platform.outcome(id.value()).final_agent;
    out.visits =
        w.platform.decode(out.final_agent)->data().weak("visits").as_int();
  }
  w.sim.run();  // quiesce
  out.images = std::move(log.images);
  out.n2_hits = resident_hits(n2);
  out.n1_delta_ships =
      w.platform.node(TestWorld::n(1)).shipments().stats().delta_ships;
  for (const int n : {1, 2}) {
    out.resident_left +=
        w.platform.node(TestWorld::n(n)).scheduler().resident_agents();
  }
  g_probe = nullptr;
  return out;
}

/// `images` without consecutive repeats (an aborted attempt and its retry
/// start from the same state).
std::vector<serial::Bytes> distinct_runs(std::vector<serial::Bytes> images) {
  images.erase(std::unique(images.begin(), images.end()), images.end());
  return images;
}

TEST(HandoffTest, DeltaHopExecutesExactlyTheStagedPayload) {
  const auto full = run_probe(/*delta=*/false, Inject::none);
  const auto delta = run_probe(/*delta=*/true, Inject::none);
  ASSERT_TRUE(full.done);
  ASSERT_TRUE(delta.done);
  EXPECT_EQ(delta.visits, 10);
  // Every N2 step after the channel's first (full-image) crossing ran
  // from the handoff; without delta shipping none did.
  EXPECT_EQ(delta.n1_delta_ships, 3u);
  EXPECT_EQ(delta.n2_hits, delta.n1_delta_ships);
  EXPECT_EQ(full.n2_hits, 0u);
  // The full-image run decodes rec.payload for every step: each step of
  // the delta run started from exactly that state.
  EXPECT_EQ(delta.images, full.images);
  EXPECT_EQ(delta.final_agent, full.final_agent);
  EXPECT_EQ(delta.resident_left, 0u);
}

TEST(HandoffTest, AbortAfterTakingTheHandoffRetriesFromThePayload) {
  const auto clean = run_probe(/*delta=*/true, Inject::none);
  const auto aborted =
      run_probe(/*delta=*/true, Inject::abort_after_handoff);
  ASSERT_TRUE(aborted.done);
  EXPECT_EQ(aborted.visits, 10);  // the aborted attempts left no effect
  EXPECT_EQ(aborted.n2_hits, aborted.n1_delta_ships);
  EXPECT_GT(aborted.n2_hits, 0u);
  // Each of the 4 N2 steps ran twice: the attempt that took the handoff
  // aborted, and its retry decoded rec.payload — from the same state.
  EXPECT_EQ(aborted.images.size(), clean.images.size() + 4);
  EXPECT_EQ(distinct_runs(aborted.images), clean.images);
  EXPECT_EQ(aborted.final_agent, clean.final_agent);
  EXPECT_EQ(aborted.resident_left, 0u);
}

TEST(HandoffTest, ReceiverCrashBeforeExecutionDecodesFromStorage) {
  const auto clean = run_probe(/*delta=*/true, Inject::none);
  const auto crashed =
      run_probe(/*delta=*/true, Inject::crash_before_execution);
  ASSERT_TRUE(crashed.done);
  EXPECT_EQ(crashed.visits, 10);  // exactly once despite the crash
  // The crashed handoff was never used: that step ran from storage.
  EXPECT_LT(crashed.n2_hits, crashed.n1_delta_ships);
  EXPECT_EQ(distinct_runs(crashed.images), clean.images);
  EXPECT_EQ(crashed.final_agent, clean.final_agent);
  EXPECT_EQ(crashed.resident_left, 0u);
}

TEST(HandoffTest, DeltaPingPongMakesNoItineraryCopy) {
  PlatformConfig cfg;
  TestWorld w(cfg, 2, 11);
  register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  ag->itinerary() = ping_pong(1, 8);
  auto id = w.platform.launch(std::move(ag));
  ASSERT_TRUE(id.is_ok());
  const auto copies = agent::Agent::itinerary_copies();
  ASSERT_TRUE(w.platform.run_until_finished(id.value()));
  const auto& s1 = w.platform.node(TestWorld::n(1)).shipments().stats();
  const auto& s2 = w.platform.node(TestWorld::n(2)).shipments().stats();
  EXPECT_EQ(s1.delta_ships + s2.delta_ships, 6u);
  EXPECT_EQ(agent::Agent::itinerary_copies(), copies);
}

}  // namespace
}  // namespace mar
