// Segmented, checksummed record log with fuzzy checkpoints.
//
// The record area of StableStorage is logically a map from key to a
// segment list (base image + deltas). Replaying the whole area on every
// node restart would make replay work grow without bound between
// full-image compactions. This module is its durable representation:
// rotated, CRC32-framed log segments in the style of a log-file manager
// (TokuDB's logfilemgr/checkpoint split is the production shape):
//
//   segment := frame*                          (bounded by segment_bytes)
//   frame   := crc32 (4B LE) | len (4B LE) | payload
//   payload := op (1B: reset|append|erase) | key_len (4B LE) | key | data
//
// The crc covers len + payload, so a torn length header is detected the
// same way as a torn body. Frames carry implicit LSNs: a segment records
// the LSN of its first frame and frames within it are consecutive.
//
// The materialized per-key index (the key -> segment list map the record
// area exposes) is the volatile read path; the log is the durable truth.
// Recovery drops the index and replays the log:
//
//   * a bad frame at the physical tail of the log is a torn in-flight
//     write — truncate there and recover the committed prefix;
//   * a bad frame anywhere else is real damage — throw CorruptionError,
//     never silently diverge;
//   * a valid checkpoint bounds the replay: only frames with
//     lsn >= checkpoint.begin_lsn are applied on top of its snapshot.
//
// Checkpoints are fuzzy: begin_checkpoint() captures a consistent
// snapshot of the index at the current LSN without stalling appends;
// complete_checkpoint() (driven by the tx-layer flush timers, so a crash
// in between simply abandons the attempt) makes it durable. Two slots
// are retained — newest and previous — so a checkpoint torn by the crash
// it was racing falls back one generation. Log segments retire when
// every frame in them is superseded (fully dead) or when both checkpoint
// slots cover them (last_lsn < the older slot's begin_lsn).
//
// An erase frame is a tombstone (the LSM rule, O'Neil et al. 1996): it
// stays live only while replay could still meet an older frame of its key
// without it. That holds while some retained segment other than its own
// holds an older reset/append frame of the key (the own segment retires
// as a whole), or while a checkpoint snapshot recovery may start from
// (newest, previous, or the one in progress) holds the key at a
// begin_lsn at or before the erase. Once neither holds, the tombstone
// dies, the key's bookkeeping goes with it, and retirement cascades
// forward.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "serial/encoder.h"

namespace mar::storage {

/// Crash-time storage damage the fault hook can inject
/// (PlatformConfig::storage_fault).
enum class StorageFault : std::uint8_t {
  none = 0,
  torn_tail = 1,        ///< partial in-flight frame at the log tail
  bit_flip = 2,         ///< single bit flipped in a committed mid-log frame
  torn_checkpoint = 3,  ///< newest checkpoint slot corrupted mid-write
};

[[nodiscard]] const char* to_string(StorageFault fault);
/// Parse "torn_tail" / "bit_flip" / "torn_checkpoint" / "none"; returns
/// nullopt for anything else (CI matrix parses MAR_STORAGE_FAULT).
[[nodiscard]] std::optional<StorageFault> storage_fault_from_string(
    std::string_view name);

/// Unrecoverable log damage: a checksum failed somewhere truncation
/// cannot reach (mid-log), or every checkpoint generation is bad after
/// the log was already trimmed against one. Recovery throws instead of
/// serving a silently-wrong agent image.
class CorruptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`: the
/// seal of every frame and checkpoint. Slicing-by-8, eight bytes a round.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

struct SegmentLogConfig {
  /// Rotation threshold: a segment accepting a frame that would push it
  /// past this many bytes is sealed first. One oversized frame still
  /// lands whole (frames never split across segments).
  std::size_t segment_bytes = 16 * 1024;
};

/// What one recovery pass did (surfaced as NodeRuntime counters and the
/// storage.recovery trace line).
struct RecoveryReport {
  std::uint64_t replayed_bytes = 0;   ///< framed bytes applied to the index
  std::uint64_t replayed_frames = 0;
  std::uint64_t segments_scanned = 0; ///< segments contributing >= 1 frame
  bool truncated_torn_tail = false;   ///< dropped a torn in-flight tail
  bool used_checkpoint = false;       ///< replay started from a snapshot
  bool checkpoint_fell_back = false;  ///< newest slot bad, previous used
};

class SegmentLog {
 public:
  explicit SegmentLog(SegmentLogConfig config) : config_(config) {}

  // --- write path (mirrors the record-area mutators) ----------------------
  // Each returns the framed byte cost, which the owner meters as
  // bytes_written (the durable write is the frame, not the bare payload).
  std::size_t append_reset(const std::string& key, serial::Bytes base);
  std::size_t append_delta(const std::string& key, serial::Bytes delta);
  /// The erase frame is a tombstone: live while a retained older frame
  /// of the key or a checkpoint snapshot holding the key could resurrect
  /// it on replay, dead (and its key forgotten) from then on.
  std::size_t append_erase(const std::string& key);

  // --- read path (materialized index) -------------------------------------
  [[nodiscard]] bool has(const std::string& key) const {
    return index_.contains(key);
  }
  [[nodiscard]] const std::vector<serial::Bytes>* segments(
      const std::string& key) const;
  [[nodiscard]] std::size_t segment_count(const std::string& key) const;

  // --- fuzzy checkpoints ---------------------------------------------------
  /// Capture a snapshot of the index at the current LSN. No-op (returns
  /// false) if a checkpoint is already in progress.
  bool begin_checkpoint();
  [[nodiscard]] bool checkpoint_in_progress() const {
    return in_progress_.has_value();
  }
  /// Make the captured snapshot durable (newest slot; old newest becomes
  /// previous), then retire segments both slots cover. Returns the
  /// serialized snapshot size (0 if none was in progress).
  std::size_t complete_checkpoint();
  /// Crash path: an in-progress checkpoint evaporates with volatile state
  /// (tombstones only its snapshot held die with it).
  void abandon_checkpoint();
  [[nodiscard]] std::uint64_t checkpoints_completed() const {
    return checkpoints_completed_;
  }

  // --- crash-time fault injection ------------------------------------------
  /// Damage the durable state as `fault` describes; deterministic in
  /// `seed`. Returns the fault actually applied (a fault with no valid
  /// target degrades to none — e.g. bit_flip on a log with no mid-log
  /// frame, torn_checkpoint with no completed checkpoint).
  StorageFault inject_fault(StorageFault fault, std::uint64_t seed);

  // --- recovery -------------------------------------------------------------
  /// Rebuild the index from the durable log + checkpoint slots. Torn
  /// tails truncate; mid-log damage throws CorruptionError. Idempotent.
  RecoveryReport recover();

  // --- introspection (benchmarks / tests) ----------------------------------
  [[nodiscard]] std::size_t live_segments() const { return segments_.size(); }
  [[nodiscard]] std::uint64_t retired_segments() const {
    return retired_segments_;
  }
  [[nodiscard]] std::size_t log_bytes() const;
  [[nodiscard]] std::uint64_t next_lsn() const { return next_lsn_; }
  /// Monotonic total of framed bytes ever appended (checkpoint cadence:
  /// unlike log_bytes() it never shrinks on retirement).
  [[nodiscard]] std::uint64_t appended_bytes() const {
    return appended_bytes_;
  }
  /// Keys with liveness bookkeeping: live frames, or a live tombstone.
  [[nodiscard]] std::size_t tracked_keys() const {
    return key_frame_segments_.size();
  }
  /// Erase frames still live.
  [[nodiscard]] std::size_t live_tombstones() const {
    return tombstones_.size();
  }
  /// Whether `other` holds the same durable log, index and liveness
  /// bookkeeping (recovery must rebuild what a never-crashed log holds).
  [[nodiscard]] bool same_state(const SegmentLog& other) const;

 private:
  /// One rotated log extent. `live` counts frames not yet superseded by a
  /// later reset/erase of their key, plus live tombstones; a sealed
  /// segment at live == 0 is dead weight and retires immediately.
  struct Segment {
    std::uint64_t id = 0;
    std::uint64_t first_lsn = 0;
    std::uint64_t frames = 0;
    std::uint64_t live = 0;
    std::vector<std::uint8_t> bytes;
    /// Erase LSNs of the tombstones waiting for this segment to retire
    /// (entries of tombstones that died meanwhile are skipped).
    std::vector<std::uint64_t> waiters;
  };

  /// Liveness bookkeeping of one key.
  struct KeyFrames {
    /// Segment of each live reset/append frame, oldest first (a live
    /// erase frame is the key's tombstone).
    std::vector<std::uint64_t> live;
    /// Distinct segments holding superseded reset/append frames of the
    /// key, ascending; retired ids are pruned lazily.
    std::vector<std::uint64_t> shadowed;
    /// LSN of the key's live tombstone, if its latest frame is one.
    std::optional<std::uint64_t> tombstone;
  };

  /// A live erase frame.
  struct Tombstone {
    std::string key;
    std::uint64_t segment = 0;
    /// Retained segments (other than `segment`) holding older
    /// reset/append frames of the key.
    std::uint64_t waiting = 0;
  };

  /// A durable checkpoint generation. The snapshot map models the
  /// engine's durable state pages (recovery installs it without an
  /// O(state) re-scan, like a real engine trusts its tree pages); the
  /// `complete` end-marker is what a crash mid-checkpoint tears — an
  /// incomplete slot is never used, recovery falls back a generation.
  /// crc/byte_size record the write-side integrity seal and the metered
  /// snapshot size.
  struct CheckpointSlot {
    bool valid = false;     ///< a snapshot write reached this slot
    bool complete = false;  ///< end marker: the write finished
    std::uint64_t begin_lsn = 0;
    std::uint32_t crc = 0;
    std::size_t byte_size = 0;
    std::map<std::string, std::vector<serial::Bytes>> snapshot;
  };

  /// Volatile in-progress snapshot (fuzzy: appends continue after begin).
  struct PendingCheckpoint {
    std::uint64_t begin_lsn = 0;
    std::map<std::string, std::vector<serial::Bytes>> snapshot;
  };

  enum class Op : std::uint8_t { reset = 0, append = 1, erase = 2 };

  Segment& active_segment(std::size_t incoming_frame_bytes);
  std::size_t append_frame(Op op, const std::string& key,
                           const serial::Bytes& data);
  /// Liveness bookkeeping of one frame just placed in `seg` at `lsn` —
  /// shared by the write path and recovery's replay, so both reach the
  /// same state.
  void track_frame(Op op, const std::string& key, Segment& seg,
                   std::uint64_t lsn);
  /// Supersede every earlier frame of `key`, retiring segments that go
  /// fully dead.
  void kill_frames_of(const std::string& key);
  /// Kill one frame of segment `seg_id`. Returns the segment when that
  /// left it sealed and empty (the caller retires it).
  [[nodiscard]] std::optional<std::uint64_t> kill_frame(std::uint64_t seg_id);
  /// The key's tombstone stops being live (it died, or the key was
  /// re-created); same return as kill_frame().
  [[nodiscard]] std::optional<std::uint64_t> end_tombstone(KeyFrames& kf);
  /// Register the tombstone of `key`'s erase frame at `lsn` in `seg`.
  void add_tombstone(const std::string& key, std::uint64_t lsn,
                     const Segment& seg);
  /// Whether a checkpoint snapshot recovery may start from holds `key`
  /// at a begin_lsn at or before `lsn`.
  [[nodiscard]] bool held_by_checkpoint(const std::string& key,
                                        std::uint64_t lsn) const;
  /// A tombstone no older frame pins any more: kill it, or park it while
  /// a checkpoint snapshot holds its key. Returns its segment when the
  /// death left that segment sealed and empty (the caller retires it).
  [[nodiscard]] std::optional<std::uint64_t> settle_tombstone(
      std::uint64_t lsn);
  /// Re-check parked tombstones after the checkpoint slots changed.
  void recheck_parked();
  /// Retire segment `id` (if still retained) and cascade: tombstones
  /// waiting on it may die, and segments they leave empty retire too.
  void retire_segment(std::uint64_t id);
  [[nodiscard]] bool sealed(const Segment& seg) const {
    return seg.id != open_segment_;
  }
  void retire_covered_segments();

  SegmentLogConfig config_;
  /// Durable: log segments in id order (ids are monotonic; retirement
  /// leaves holes).
  std::map<std::uint64_t, Segment> segments_;
  CheckpointSlot newest_;
  CheckpointSlot previous_;
  /// Volatile: read-path index and liveness bookkeeping, rebuilt by
  /// recover().
  std::map<std::string, std::vector<serial::Bytes>> index_;
  std::map<std::string, KeyFrames> key_frame_segments_;
  /// Live tombstones by erase LSN.
  std::map<std::uint64_t, Tombstone> tombstones_;
  /// Tombstones no older frame pins, kept live by a checkpoint snapshot.
  std::set<std::uint64_t> parked_;
  std::optional<PendingCheckpoint> in_progress_;
  /// The segment accepting appends (during replay: the one being
  /// scanned). Every other segment is sealed.
  std::uint64_t open_segment_ = 0;
  std::uint64_t next_lsn_ = 0;
  std::uint64_t next_segment_id_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t retired_segments_ = 0;
  std::uint64_t checkpoints_completed_ = 0;
  /// A checkpoint completed since the last recovery (the only slot write
  /// a crash can tear).
  bool checkpoint_written_ = false;
};

}  // namespace mar::storage
