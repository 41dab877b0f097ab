// Bounded crash recovery: the segmented record log, fuzzy checkpoints and
// torn-write fault injection (src/storage/segment_log.h).
//
// Covers the invariants recovery rests on:
//   * replaying the checksummed log rebuilds the per-key index
//     bit-identically to the never-crashed materialized state;
//   * a torn tail frame (crash mid-append) truncates back to exactly the
//     committed prefix — never past it, never short of it;
//   * mid-log damage (bit flip in a committed frame) hard-fails with
//     CorruptionError instead of silently diverging;
//   * a checkpoint torn by the crash it raced falls back one generation;
//   * under random writes, checkpoints, crashes and faults (model-based),
//     no erased key resurrects, recovery rebuilds exactly the liveness a
//     never-crashed log holds, and a quiet log shrinks to its open
//     segment;
//   * at platform level, crashes with injected storage faults preserve
//     exactly-once and bit-identity with the clean-run oracle, including
//     crashes landing during compaction and during a checkpoint window;
//   * a crash inside the commit pipeline (a queued local commit, or a
//     decision awaiting its flush) loses only volatile staging: the step
//     runs again and its resource effect lands exactly once.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "harness/agents.h"
#include "harness/world.h"
#include "storage/segment_log.h"
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
using storage::CorruptionError;
using storage::SegmentLog;
using storage::SegmentLogConfig;
using storage::StorageFault;

serial::Bytes bytes_of(const std::string& s) {
  return serial::Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// Unit level: SegmentLog
// ---------------------------------------------------------------------------

/// The CRC-32 definition, one bit at a time: the reference the table
/// form must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const auto byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  const auto check = bytes_of("123456789");
  EXPECT_EQ(storage::crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32_bitwise(check), 0xCBF43926u);
  EXPECT_EQ(storage::crc32({}), 0u);
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryOffsetAndLength) {
  Rng rng(26);
  serial::Bytes buf(64 + 16);
  for (int round = 0; round < 8; ++round) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 64; ++len) {
        const auto slice = std::span(buf).subspan(offset, len);
        ASSERT_EQ(storage::crc32(slice), crc32_bitwise(slice))
            << "round " << round << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(SegmentLogTest, RotationAndRetirement) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/128});
  for (int i = 0; i < 16; ++i) {
    log.append_reset("k" + std::to_string(i % 2),
                     bytes_of(std::string(40, 'a' + i)));
  }
  // 16 frames of ~50+ bytes cannot fit one 128-byte segment: rotation
  // happened, and each reset superseded the key's older frames, so the
  // fully-dead sealed segments retired instead of accumulating.
  EXPECT_GT(log.retired_segments(), 0u);
  EXPECT_LT(log.live_segments(), 16u);
  ASSERT_NE(log.segments("k0"), nullptr);
  EXPECT_EQ((*log.segments("k0"))[0], bytes_of(std::string(40, 'a' + 14)));
  EXPECT_EQ((*log.segments("k1"))[0], bytes_of(std::string(40, 'a' + 15)));
}

TEST(SegmentLogTest, RecoverRebuildsIndexBitIdentically) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/96});
  log.append_reset("alpha", bytes_of("base-alpha"));
  log.append_delta("alpha", bytes_of("d1"));
  log.append_reset("beta", bytes_of("base-beta"));
  log.append_delta("alpha", bytes_of("d2"));
  log.append_delta("beta", bytes_of("d3"));
  log.append_reset("gamma", bytes_of("base-gamma"));
  log.append_erase("beta");
  const auto alpha = *log.segments("alpha");
  const auto gamma = *log.segments("gamma");

  const auto report = log.recover();
  EXPECT_GT(report.replayed_bytes, 0u);
  EXPECT_GT(report.segments_scanned, 0u);
  EXPECT_FALSE(report.truncated_torn_tail);
  ASSERT_NE(log.segments("alpha"), nullptr);
  EXPECT_EQ(*log.segments("alpha"), alpha);
  EXPECT_EQ(*log.segments("gamma"), gamma);
  EXPECT_FALSE(log.has("beta"));  // erase frames must replay too

  // Idempotent: a second scan reproduces the same state.
  const auto again = log.recover();
  EXPECT_EQ(again.replayed_bytes, report.replayed_bytes);
  EXPECT_EQ(*log.segments("alpha"), alpha);
}

TEST(SegmentLogTest, TornTailTruncatesToCommittedPrefix) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SegmentLog log(SegmentLogConfig{/*segment_bytes=*/256});
    log.append_reset("a", bytes_of("base"));
    for (int i = 0; i < 6; ++i) {
      log.append_delta("a", bytes_of("delta" + std::to_string(i)));
    }
    const auto committed = *log.segments("a");
    ASSERT_EQ(log.inject_fault(StorageFault::torn_tail, seed),
              StorageFault::torn_tail);
    const auto report = log.recover();
    EXPECT_TRUE(report.truncated_torn_tail) << "seed " << seed;
    ASSERT_NE(log.segments("a"), nullptr);
    EXPECT_EQ(*log.segments("a"), committed) << "seed " << seed;
    // The log stays writable after truncation.
    log.append_delta("a", bytes_of("post"));
    EXPECT_EQ(log.segments("a")->back(), bytes_of("post"));
  }
}

TEST(SegmentLogTest, BitFlipInCommittedFrameHardFails) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SegmentLog log(SegmentLogConfig{/*segment_bytes=*/256});
    log.append_reset("a", bytes_of("base-image-with-some-heft"));
    for (int i = 0; i < 8; ++i) {
      log.append_delta("a", bytes_of("delta-" + std::to_string(i)));
    }
    ASSERT_EQ(log.inject_fault(StorageFault::bit_flip, seed),
              StorageFault::bit_flip);
    EXPECT_THROW(log.recover(), CorruptionError) << "seed " << seed;
  }
}

TEST(SegmentLogTest, BitFlipNeedsAMidLogTarget) {
  SegmentLog log(SegmentLogConfig{});
  log.append_reset("a", bytes_of("only-frame"));
  // One frame total: damaging it would be indistinguishable from a torn
  // tail, so the injector refuses rather than arming a silent test.
  EXPECT_EQ(log.inject_fault(StorageFault::bit_flip, 1),
            StorageFault::none);
}

TEST(SegmentLogTest, CheckpointBoundsReplay) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/128});
  auto churn = [&](int rounds, const char* tag) {
    for (int i = 0; i < rounds; ++i) {
      log.append_reset("k" + std::to_string(i % 3),
                       bytes_of(std::string(32, 'x') + tag));
    }
  };
  churn(12, "old");
  const auto unbounded = log.recover();  // no checkpoint: full replay

  ASSERT_TRUE(log.begin_checkpoint());
  EXPECT_GT(log.complete_checkpoint(), 0u);
  churn(12, "mid");
  ASSERT_TRUE(log.begin_checkpoint());
  EXPECT_GT(log.complete_checkpoint(), 0u);
  EXPECT_EQ(log.checkpoints_completed(), 2u);
  churn(2, "new");

  const auto bounded = log.recover();
  EXPECT_TRUE(bounded.used_checkpoint);
  EXPECT_FALSE(bounded.checkpoint_fell_back);
  EXPECT_LT(bounded.replayed_bytes, unbounded.replayed_bytes);
  EXPECT_EQ((*log.segments("k1"))[0],
            bytes_of(std::string(32, 'x') + std::string("new")));
}

TEST(SegmentLogTest, TornCheckpointFallsBackOneGeneration) {
  SegmentLog log(SegmentLogConfig{/*segment_bytes=*/128});
  for (int i = 0; i < 8; ++i) {
    log.append_reset("k", bytes_of("gen0-" + std::to_string(i)));
  }
  ASSERT_TRUE(log.begin_checkpoint());
  ASSERT_GT(log.complete_checkpoint(), 0u);
  log.append_reset("k", bytes_of("gen1"));
  ASSERT_TRUE(log.begin_checkpoint());
  ASSERT_GT(log.complete_checkpoint(), 0u);
  log.append_delta("k", bytes_of("tail"));

  ASSERT_EQ(log.inject_fault(StorageFault::torn_checkpoint, 5),
            StorageFault::torn_checkpoint);
  const auto report = log.recover();
  EXPECT_TRUE(report.used_checkpoint);
  EXPECT_TRUE(report.checkpoint_fell_back);
  // Fallback replays more log (from the older begin-LSN) but lands on
  // the identical final state.
  ASSERT_NE(log.segments("k"), nullptr);
  ASSERT_EQ(log.segments("k")->size(), 2u);
  EXPECT_EQ((*log.segments("k"))[0], bytes_of("gen1"));
  EXPECT_EQ((*log.segments("k"))[1], bytes_of("tail"));
}

TEST(SegmentLogTest, CrashDuringCheckpointAbandonsTheAttempt) {
  SegmentLog log(SegmentLogConfig{});
  log.append_reset("k", bytes_of("v0"));
  ASSERT_TRUE(log.begin_checkpoint());
  log.append_reset("k", bytes_of("v1"));  // fuzzy: appends keep flowing
  // Crash before complete_checkpoint(): the pending snapshot is volatile.
  const auto report = log.recover();
  EXPECT_FALSE(report.used_checkpoint);
  EXPECT_FALSE(log.checkpoint_in_progress());
  EXPECT_EQ(log.checkpoints_completed(), 0u);
  EXPECT_EQ((*log.segments("k"))[0], bytes_of("v1"));
}

// Model-based check of the log's liveness rules: random write, checkpoint,
// crash and recovery sequences run against a reference map. Asserts that
//   * no erased key is ever resurrected, by the write path or a recovery;
//   * after a recovery the index and every piece of liveness bookkeeping
//     equal those of the same log had it never crashed (the in-progress
//     checkpoint, volatile, is abandoned in both);
//   * once every key is erased and the checkpoint slots moved past them,
//     the log keeps at most its open segment: no tombstone outlives what
//     it shadows.
// MAR_STORAGE_FAULT forces one fault kind at every crash (CI matrix);
// unset, crashes draw none / torn_tail / torn_checkpoint at random.
class SegmentLogModel {
 public:
  static constexpr std::size_t kSegmentBytes = 160;

  SegmentLogModel(std::uint64_t seed, bool checkpoints,
                  std::optional<StorageFault> forced)
      : rng_(seed),
        seed_(seed),
        checkpoints_(checkpoints),
        forced_(forced),
        log_(SegmentLogConfig{kSegmentBytes}) {}

  /// Run `ops` random operations; false when an injected bit flip ended
  /// the log (recovery must then have thrown).
  bool run(int ops) {
    for (int i = 0; i < ops; ++i) {
      const auto r = rng_() % 100;
      if (r < 28) {
        reset(key(), data());
      } else if (r < 58) {
        append();
      } else if (r < 76) {
        erase();
      } else if (r < 83 && checkpoints_) {
        log_.begin_checkpoint();
      } else if (r < 90 && checkpoints_) {
        log_.complete_checkpoint();
      } else if (!crash()) {
        return false;
      }
      expect_matches_model();
      if (::testing::Test::HasFailure()) return true;
    }
    return true;
  }

  /// Erase everything, let the checkpoint slots move past the erased
  /// keys, and check the log shrank to its open segment.
  void quiesce() {
    while (!model_.empty()) erase();
    if (checkpoints_) {
      log_.complete_checkpoint();
      for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(log_.begin_checkpoint());
        log_.complete_checkpoint();
      }
    }
    expect_matches_model();
    // Live framed bytes are zero: only the open segment may remain.
    EXPECT_LE(log_.log_bytes(), kSegmentBytes) << "seed " << seed_;
    EXPECT_LE(log_.live_segments(), 1u) << "seed " << seed_;
    EXPECT_EQ(log_.tracked_keys(), 0u) << "seed " << seed_;
    EXPECT_EQ(log_.live_tombstones(), 0u) << "seed " << seed_;
  }

 private:
  std::string key() { return "k" + std::to_string(rng_() % 6); }
  serial::Bytes data() {
    serial::Bytes out(rng_() % 40);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng_());
    return out;
  }
  void reset(const std::string& k, const serial::Bytes& d) {
    log_.append_reset(k, d);
    model_[k] = {d};
  }
  void append() {
    if (model_.empty()) return reset(key(), data());
    auto it = std::next(model_.begin(),
                        static_cast<long>(rng_() % model_.size()));
    const auto d = data();
    log_.append_delta(it->first, d);
    it->second.push_back(d);
  }
  void erase() {
    if (model_.empty()) return;
    auto it = std::next(model_.begin(),
                        static_cast<long>(rng_() % model_.size()));
    log_.append_erase(it->first);
    model_.erase(it);
  }
  bool crash() {
    StorageFault fault = StorageFault::none;
    if (forced_.has_value()) {
      fault = *forced_;
    } else {
      const StorageFault pick[] = {StorageFault::none, StorageFault::torn_tail,
                                   StorageFault::torn_checkpoint};
      fault = pick[rng_() % (checkpoints_ ? 3 : 2)];
    }
    SegmentLog never_crashed = log_;
    never_crashed.abandon_checkpoint();
    const auto applied = log_.inject_fault(fault, rng_());
    if (applied == StorageFault::bit_flip) {
      EXPECT_THROW(log_.recover(), CorruptionError) << "seed " << seed_;
      return false;
    }
    log_.recover();
    // A torn checkpoint legitimately leaves one slot fewer than the log
    // that never crashed; every other crash must be invisible.
    if (applied != StorageFault::torn_checkpoint) {
      EXPECT_TRUE(log_.same_state(never_crashed)) << "seed " << seed_;
    }
    return true;
  }
  void expect_matches_model() {
    for (int k = 0; k < 6; ++k) {
      const std::string name = "k" + std::to_string(k);
      const auto it = model_.find(name);
      if (it == model_.end()) {
        EXPECT_FALSE(log_.has(name)) << name << " resurrected, seed " << seed_;
      } else {
        ASSERT_NE(log_.segments(name), nullptr) << name << ", seed " << seed_;
        EXPECT_EQ(*log_.segments(name), it->second) << name << ", seed "
                                                    << seed_;
      }
    }
  }

  std::mt19937_64 rng_;
  std::uint64_t seed_;
  bool checkpoints_;
  std::optional<StorageFault> forced_;
  SegmentLog log_;
  std::map<std::string, std::vector<serial::Bytes>> model_;
};

TEST(SegmentLogTest, ModelBasedLivenessAndRecovery) {
  std::optional<StorageFault> forced;
  if (const char* env = std::getenv("MAR_STORAGE_FAULT");
      env != nullptr && *env != '\0') {
    forced = storage::storage_fault_from_string(env);
    ASSERT_TRUE(forced.has_value()) << "bad MAR_STORAGE_FAULT: " << env;
  }
  for (const bool checkpoints : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      SegmentLogModel model(seed, checkpoints, forced);
      if (model.run(300)) model.quiesce();
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " checkpoints "
                                 << checkpoints;
    }
  }
}

TEST(StableStorageTest, CheckpointFreeRecoveryMetersEveryRetainedFrame) {
  // Without a checkpoint, recovery replays the whole retained log — also
  // frames a later reset superseded but that still sit in a live segment.
  // Each frame costs crc32 + len (8) + op + key_len (5) + key + data.
  storage::StableStorage s;
  s.record_reset("agentimg:1", bytes_of(std::string(100, 'b')));
  s.record_append("agentimg:1", bytes_of(std::string(20, 'd')));
  s.record_reset("agentimg:2", bytes_of(std::string(50, 'c')));
  s.record_reset("agentimg:1", bytes_of(std::string(30, 'e')));
  constexpr std::uint64_t kFramed = 4 * (8 + 5 + 10) + 100 + 20 + 50 + 30;
  EXPECT_EQ(s.record_area_bytes(), kFramed);
  const auto report = s.recover_records();
  EXPECT_FALSE(report.used_checkpoint);
  EXPECT_EQ(report.replayed_frames, 4u);
  EXPECT_EQ(report.replayed_bytes, kFramed);
  EXPECT_EQ(report.segments_scanned, 1u);
  EXPECT_EQ(s.stats().recovery_replayed_bytes.load(), kFramed);
  EXPECT_EQ(s.stats().recovery_segments.load(), 1u);
  EXPECT_EQ((*s.record_segments("agentimg:1"))[0],
            bytes_of(std::string(30, 'e')));
}

// ---------------------------------------------------------------------------
// Platform level: crashes + injected storage faults, exactly-once oracle
// ---------------------------------------------------------------------------

struct RunOutcome {
  serial::Bytes final_agent;
  bool done = false;
  std::int64_t visits = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recovery_replayed_bytes = 0;
  std::uint64_t record_writes = 0;  ///< record_reset + record_append calls
  std::size_t record_area_bytes = 0;
};

struct RunSpec {
  int steps = 24;
  bool incremental_commit = true;
  bool crash = false;
  StorageFault fault = StorageFault::none;
  std::uint32_t compaction_interval = 4;
  std::size_t checkpoint_interval_bytes = 0;
  std::uint64_t seed = 9;
};

RunOutcome run_workload(const RunSpec& spec) {
  PlatformConfig cfg;
  cfg.incremental_commit = spec.incremental_commit;
  cfg.compaction_interval_steps = spec.compaction_interval;
  cfg.discard_log_on_top_level = false;
  cfg.segment_bytes = 2048;
  cfg.checkpoint_interval_bytes = spec.checkpoint_interval_bytes;
  cfg.storage_fault = spec.fault;
  TestWorld w(cfg, /*node_count=*/1, spec.seed);
  harness::register_workload(w.platform);
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (int s = 0; s < spec.steps; ++s) {
    tour.step("spend_logged", TestWorld::n(1));
  }
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  if (spec.crash) {
    // Three crashes spread over the run; with compaction_interval 4 and
    // one ~200us-service step at a time, some land right around a
    // record_reset (compaction) and — with checkpoints armed — inside
    // checkpoint windows.
    w.faults.crash_at(TestWorld::n(1), /*at=*/900, /*downtime=*/4'000);
    w.faults.crash_at(TestWorld::n(1), /*at=*/9'000, /*downtime=*/4'000);
    w.faults.crash_at(TestWorld::n(1), /*at=*/21'000, /*downtime=*/4'000);
  }
  auto id = w.platform.launch(std::move(ag));
  EXPECT_TRUE(id.is_ok());
  EXPECT_TRUE(w.platform.run_until_finished(id.value()));
  RunOutcome out;
  const auto& o = w.platform.outcome(id.value());
  out.done = o.state == AgentOutcome::State::done;
  out.final_agent = o.final_agent;
  const auto decoded = w.platform.decode(o.final_agent);
  out.visits = decoded->data().weak("visits").as_int();
  const auto& storage = w.platform.node(TestWorld::n(1)).storage();
  const auto& stats = storage.stats();
  out.record_writes = stats.record_resets.load() + stats.record_appends.load();
  out.record_area_bytes = storage.record_area_bytes();
  out.checkpoints = stats.checkpoints_completed.load();
  out.recovery_replayed_bytes = stats.recovery_replayed_bytes.load();
  return out;
}

TEST(RecoveryPlatformTest, SegmentedMatchesFullImageCommitBitForBit) {
  // Full-image commits keep every step's agent in the queue record and
  // never touch the record area; incremental commits route it through
  // the segmented log.
  RunSpec seg;
  RunSpec full_image;
  full_image.incremental_commit = false;
  const auto a = run_workload(seg);
  const auto b = run_workload(full_image);
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  EXPECT_GT(a.record_writes, 0u);
  EXPECT_EQ(b.record_writes, 0u);
  EXPECT_EQ(b.record_area_bytes, 0u);
  // The durable representation is invisible to execution semantics.
  EXPECT_EQ(a.final_agent, b.final_agent);
  EXPECT_EQ(a.visits, 24);
}

TEST(RecoveryPlatformTest, CrashNearCompactionPreservesExactlyOnce) {
  // Crashes land around record_reset compactions (interval 4). Across 3
  // randomized seeds: the agent completes, every step ran exactly once
  // (visits == steps) and the terminal image matches the no-crash oracle.
  for (std::uint64_t seed : {9ull, 23ull, 57ull}) {
    RunSpec clean;
    clean.seed = seed;
    RunSpec crashed = clean;
    crashed.crash = true;
    const auto oracle = run_workload(clean);
    const auto recovered = run_workload(crashed);
    ASSERT_TRUE(oracle.done) << "seed " << seed;
    ASSERT_TRUE(recovered.done) << "seed " << seed;
    EXPECT_EQ(recovered.visits, 24) << "seed " << seed;
    EXPECT_EQ(recovered.final_agent, oracle.final_agent) << "seed " << seed;
    EXPECT_GT(recovered.recovery_replayed_bytes, 0u);
  }
}

TEST(RecoveryPlatformTest, TornTailInjectionRecoversBitIdentically) {
  for (std::uint64_t seed : {9ull, 23ull, 57ull}) {
    RunSpec clean;
    clean.seed = seed;
    RunSpec torn = clean;
    torn.crash = true;
    torn.fault = StorageFault::torn_tail;
    const auto oracle = run_workload(clean);
    const auto recovered = run_workload(torn);
    ASSERT_TRUE(recovered.done) << "seed " << seed;
    EXPECT_EQ(recovered.visits, 24) << "seed " << seed;
    EXPECT_EQ(recovered.final_agent, oracle.final_agent) << "seed " << seed;
  }
}

TEST(RecoveryPlatformTest, CheckpointsCompleteAndCrashMidCheckpointFallsBack) {
  // Tiny checkpoint interval: every group-commit flush begins one, so the
  // crashes land inside / between checkpoint windows; torn_checkpoint
  // additionally corrupts the newest completed generation at crash time.
  for (std::uint64_t seed : {9ull, 23ull, 57ull}) {
    RunSpec clean;
    clean.seed = seed;
    clean.checkpoint_interval_bytes = 256;
    RunSpec crashed = clean;
    crashed.crash = true;
    crashed.fault = StorageFault::torn_checkpoint;
    const auto oracle = run_workload(clean);
    const auto recovered = run_workload(crashed);
    ASSERT_TRUE(oracle.done) << "seed " << seed;
    ASSERT_TRUE(recovered.done) << "seed " << seed;
    EXPECT_GT(oracle.checkpoints, 0u) << "seed " << seed;
    EXPECT_EQ(recovered.visits, 24) << "seed " << seed;
    EXPECT_EQ(recovered.final_agent, oracle.final_agent) << "seed " << seed;
  }
}

TEST(RecoveryPlatformTest, BitFlipInjectionHardFailsLoudly) {
  // Mid-log damage must never be silently absorbed: recovery throws out
  // of the crash/recover event instead of serving a corrupt image.
  RunSpec spec;
  spec.crash = true;
  spec.fault = StorageFault::bit_flip;
  EXPECT_THROW(run_workload(spec), CorruptionError);
}

// ---------------------------------------------------------------------------
// Hand-scheduled crashes inside the commit pipeline
// ---------------------------------------------------------------------------

bool holds_prepare_state(const storage::StableStorage& s) {
  return !s.keys_with_prefix("prep.").empty() ||
         !s.keys_with_prefix("txprep:").empty();
}

/// A crashed node keeps no transaction state of its own coordination: no
/// resource staging or lock, no scheduler entry but the attempt count of
/// a record still queued (so none once the node is quiet), nothing in the
/// tx manager's queues and no prepare record to resolve.
void expect_no_volatile_tx_state(agent::NodeRuntime& rt) {
  for (std::uint64_t k = 1; k <= 256; ++k) {
    EXPECT_FALSE(rt.resources().has_tx(tx::make_tx_id(rt.id(), k)));
  }
  EXPECT_FALSE(rt.resources().locked("bank"));
  std::size_t counted = 0;
  for (const auto& r : rt.storage().queue()) {
    counted += rt.scheduler().attempts(r.record_id) > 0 ? 1 : 0;
  }
  EXPECT_EQ(rt.scheduler().size(), counted);
  EXPECT_EQ(rt.scheduler().resident_agents(), 0u);
  EXPECT_TRUE(rt.txm().idle());
  EXPECT_FALSE(holds_prepare_state(rt.storage()));
}

std::size_t step_begins(const TestWorld& w, std::uint32_t node) {
  return w.platform.spans().count(EventKind::step_begin, node);
}

std::int64_t balance_of(TestWorld& w, int node) {
  return w.committed(node, "bank").at("accounts").at("acct").at("balance")
      .as_int();
}

AgentId launch_deposits(TestWorld& w, const std::vector<int>& nodes) {
  auto ag = std::make_unique<WorkloadAgent>();
  Itinerary tour;
  for (const int n : nodes) tour.step("deposit", TestWorld::n(n));
  Itinerary main_it;
  main_it.sub(std::move(tour));
  ag->itinerary() = std::move(main_it);
  auto id = w.platform.launch(std::move(ag));
  EXPECT_TRUE(id.is_ok());
  return id.value();
}

TEST(RecoveryPlatformTest, CrashBeforeLocalGroupFlushReRunsTheStepOnce) {
  // The first step's local commit is decided and queued for the group
  // flush — holding its account lock, applied nowhere — when the node
  // crashes. Nothing of it was durable, so recovery finds nothing to
  // abort: the record is simply re-offered and the step runs again, its
  // deposit landing exactly once.
  PlatformConfig cfg;
  cfg.group_commit_window = 8;
  cfg.group_commit_flush_us = 50'000;  // the queued commit dwells 50 ms
  TestWorld w(cfg, /*node_count=*/1, /*seed=*/9);
  harness::register_workload(w.platform);
  w.open_account(1, "acct", 0);
  const AgentId id = launch_deposits(w, {1, 1, 1});
  auto& rt = w.platform.node(TestWorld::n(1));

  w.sim.run_until(10'000);
  ASSERT_TRUE(rt.resources().locked("bank"));  // staged, decided, queued
  EXPECT_EQ(balance_of(w, 1), 0);
  EXPECT_FALSE(holds_prepare_state(rt.storage()));
  const auto bytes_before_crash = rt.storage().stats().bytes_written.load();

  w.net.crash_node(TestWorld::n(1));
  expect_no_volatile_tx_state(rt);
  EXPECT_EQ(rt.storage().queue().size(), 1u);  // the step's record stays
  EXPECT_EQ(balance_of(w, 1), 0);
  EXPECT_EQ(rt.storage().stats().bytes_written.load(), bytes_before_crash);
  w.sim.run_until(14'000);
  w.net.recover_node(TestWorld::n(1));

  ASSERT_TRUE(w.platform.run_until_finished(id));
  const auto& out = w.platform.outcome(id);
  ASSERT_EQ(out.state, AgentOutcome::State::done);
  EXPECT_EQ(w.platform.decode(out.final_agent)->data().weak("visits").as_int(),
            3);
  EXPECT_EQ(step_begins(w, 1), 4u);  // three steps, the first one twice
  EXPECT_EQ(balance_of(w, 1), 150);
  EXPECT_TRUE(rt.txm().idle());
  w.sim.run();
  expect_no_volatile_tx_state(rt);
}

TEST(RecoveryPlatformTest, CoordinatorCrashBeforeDecisionFlushAbortsByInquiry) {
  // The step on N1 migrates the agent to N2. N2 prepared the transfer and
  // voted YES; N1 decided, but the decision still waits for its batched
  // flush when N1 crashes. N1's own staging was never durable, so there
  // is nothing to presume-abort locally; N2 resolves its prepared
  // transfer to abort by inquiry, and the step re-runs once.
  PlatformConfig cfg;
  cfg.group_commit_window = 8;
  cfg.group_commit_flush_us = 50'000;
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/9);
  harness::register_workload(w.platform);
  w.open_account(1, "acct", 0);
  w.open_account(2, "acct", 0);
  const AgentId id = launch_deposits(w, {1, 2});
  auto& coord = w.platform.node(TestWorld::n(1));
  auto& part = w.platform.node(TestWorld::n(2));

  const auto decided = [&w] {
    for (const auto& e : w.platform.spans().of_kind(EventKind::tx_pipeline)) {
      if (e.node == 1 &&
          e.code == static_cast<std::uint8_t>(TxStage::decided)) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(w.sim.run_while_pending(decided));
  EXPECT_FALSE(part.storage().keys_with_prefix("txprep:").empty());
  EXPECT_FALSE(holds_prepare_state(coord.storage()));
  EXPECT_TRUE(coord.storage().keys_with_prefix("txdec:").empty());
  EXPECT_TRUE(coord.resources().locked("bank"));

  w.net.crash_node(TestWorld::n(1));
  expect_no_volatile_tx_state(coord);
  EXPECT_EQ(balance_of(w, 1), 0);
  // Stay down past several inquiry intervals: N2 stays in doubt, its
  // transfer neither applied nor dropped.
  w.sim.run_until(w.sim.now() + 600'000);
  EXPECT_TRUE(part.storage().queue_empty());
  EXPECT_FALSE(part.storage().keys_with_prefix("txprep:").empty());
  w.net.recover_node(TestWorld::n(1));

  ASSERT_TRUE(w.platform.run_until_finished(id));
  const auto& out = w.platform.outcome(id);
  ASSERT_EQ(out.state, AgentOutcome::State::done);
  EXPECT_EQ(w.platform.decode(out.final_agent)->data().weak("visits").as_int(),
            2);
  EXPECT_EQ(step_begins(w, 1), 2u);  // the migrating step ran twice
  EXPECT_EQ(step_begins(w, 2), 1u);
  EXPECT_EQ(balance_of(w, 1), 50);
  EXPECT_EQ(balance_of(w, 2), 50);
  EXPECT_TRUE(coord.txm().idle());
  EXPECT_TRUE(part.txm().idle());
  w.sim.run();
  expect_no_volatile_tx_state(coord);
  expect_no_volatile_tx_state(part);
}

TEST(RecoveryPlatformTest, CoordinatorCrashAfterRemoteDecisionKeepsNoAttempt) {
  // Two agents deposit into one account on N1 from two slots, so one step
  // aborts on the lock and its record counts an attempt. The retry
  // migrates the agent to N2: N1 decides the commit, applies it locally
  // (the record leaves N1's queue) and crashes before N2's ack drains.
  // The commit callback dies with the crash and recovery re-drives the
  // commit without one, so only the record leaving the queue can retire
  // its attempt count.
  PlatformConfig cfg;
  cfg.node_concurrency = 2;
  TestWorld w(cfg, /*node_count=*/2, /*seed=*/9);
  harness::register_workload(w.platform);
  w.open_account(1, "acct", 0);
  w.open_account(2, "acct", 0);
  const AgentId first = launch_deposits(w, {1, 2});
  const AgentId second = launch_deposits(w, {1, 2});
  auto& coord = w.platform.node(TestWorld::n(1));
  auto& part = w.platform.node(TestWorld::n(2));

  std::uint64_t aborted = 0;
  ASSERT_TRUE(w.sim.run_while_pending([&] {
    for (const auto& e : w.platform.spans().of_kind(EventKind::step_abort)) {
      if (e.node == 1) aborted = e.value;
    }
    return aborted != 0;
  }));
  EXPECT_EQ(coord.scheduler().attempts(aborted), 1u);
  ASSERT_TRUE(w.sim.run_while_pending([&] {
    return coord.storage().find_record(aborted) == nullptr &&
           !coord.storage().keys_with_prefix("txdec:").empty();
  }));

  w.net.crash_node(TestWorld::n(1));
  EXPECT_EQ(coord.scheduler().attempts(aborted), 0u);
  EXPECT_EQ(coord.scheduler().size(), 0u);
  w.sim.run_until(w.sim.now() + 10'000);
  w.net.recover_node(TestWorld::n(1));

  const std::vector<AgentId> ids{first, second};
  ASSERT_TRUE(w.platform.run_until_all_finished(ids));
  for (const auto id : ids) {
    ASSERT_EQ(w.platform.outcome(id).state, AgentOutcome::State::done);
  }
  EXPECT_EQ(balance_of(w, 1), 100);
  EXPECT_EQ(balance_of(w, 2), 100);
  w.sim.run();
  expect_no_volatile_tx_state(coord);
  expect_no_volatile_tx_state(part);
}

TEST(RecoveryPlatformTest, FaultMatrixFromEnvironment) {
  // CI fault matrix: MAR_STORAGE_FAULT ∈ {torn_tail, bit_flip,
  // torn_checkpoint} re-runs the randomized kill workload under that
  // injection. Recoverable faults must stay bit-identical to the oracle;
  // bit_flip must hard-fail.
  const char* env = std::getenv("MAR_STORAGE_FAULT");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "MAR_STORAGE_FAULT not set";
  }
  const auto fault = storage::storage_fault_from_string(env);
  ASSERT_TRUE(fault.has_value()) << "bad MAR_STORAGE_FAULT: " << env;
  RunSpec spec;
  spec.crash = true;
  spec.fault = *fault;
  if (*fault == StorageFault::torn_checkpoint) {
    spec.checkpoint_interval_bytes = 256;
  }
  if (*fault == StorageFault::bit_flip) {
    EXPECT_THROW(run_workload(spec), CorruptionError);
    return;
  }
  RunSpec clean = spec;
  clean.crash = false;
  clean.fault = StorageFault::none;
  const auto oracle = run_workload(clean);
  const auto recovered = run_workload(spec);
  ASSERT_TRUE(recovered.done);
  EXPECT_EQ(recovered.visits, 24);
  EXPECT_EQ(recovered.final_agent, oracle.final_agent);
}

}  // namespace
}  // namespace mar
