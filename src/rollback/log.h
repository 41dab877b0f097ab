// The agent rollback log (paper Sec. 4.2).
//
// The log is attached to the agent and migrates with it. It records, per
// committed step, everything needed to compensate that step, and at each
// agent savepoint the physical image (or transition delta) of the strongly
// reversible objects. Entry kinds, following Fig. 2:
//
//   SP  (savepoint entry)      id, strong-object data, resume metadata
//   BOS (begin-of-step entry)  node that executed the step
//   OE  (operation entry)      one compensating operation + parameters;
//                              typed resource/agent/mixed (Sec. 4.4.1)
//   EOS (end-of-step entry)    node, mixed-entry flag (the optimization's
//                              lookup key), alternative nodes, and a
//                              cannot-compensate poison flag (Sec. 3.2)
//
// To roll back to savepoint k the log is consumed from the end towards the
// SP_k entry; the compensating operations of a step execute in reverse
// order of their logging (OE_n,p ... OE_n,1).
//
// Both physical logging flavours of Sec. 4.2 are supported for savepoints:
// *state logging* stores a full image of the strongly reversible objects,
// *transition logging* stores a forward delta from the previous savepoint,
// with the full reconstruction and delta-merging (GC) machinery.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "serial/serializable.h"
#include "serial/value.h"
#include "util/ids.h"
#include "util/result.h"

namespace mar::rollback {

/// Itinerary cursor: path of entry indices from the main itinerary down to
/// a step entry. Stored in savepoints so a rollback can resume execution
/// at the step following the savepoint.
using Position = std::vector<std::uint32_t>;

/// Why a savepoint exists. Sub-itinerary savepoints are written
/// automatically on sub-itinerary entry and garbage-collected on
/// completion (Sec. 4.4.2); ad-hoc savepoints are established by the agent
/// program logic at the end of a step (Sec. 2).
enum class SavepointOrigin : std::uint8_t { adhoc = 0, sub_itinerary = 1 };

struct SavepointEntry {
  SavepointId id;
  SavepointOrigin origin = SavepointOrigin::adhoc;
  /// Nesting depth of the owning sub-itinerary (sub_itinerary origin).
  std::uint32_t depth = 0;
  /// Lightweight savepoints (Sec. 4.4.2) carry no data: no step executed
  /// since the previous savepoint, whose data is authoritative.
  bool lightweight = false;
  /// Transition logging: `delta` transforms the previous savepoint's
  /// strong-object state into this one's. State logging: `image` is the
  /// full strong-object state.
  bool transition = false;
  serial::Value image;
  serial::ValuePatch delta;
  /// Itinerary position of the step to execute after restoring here.
  Position resume_position;

  friend bool operator==(const SavepointEntry&, const SavepointEntry&) =
      default;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t byte_size() const;
};

struct BeginOfStepEntry {
  NodeId node;
  std::string step_name;

  friend bool operator==(const BeginOfStepEntry&, const BeginOfStepEntry&) =
      default;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t byte_size() const;
};

/// Operation-entry types of Sec. 4.4.1, driving the optimized rollback.
enum class OpEntryKind : std::uint8_t {
  resource = 0,  ///< touches resource state only; shippable without agent
  agent = 1,     ///< touches weakly reversible objects only; runs anywhere
  mixed = 2,     ///< needs both; forces the agent to the resource node
};

[[nodiscard]] std::string_view to_string(OpEntryKind k);

struct OperationEntry {
  OpEntryKind kind = OpEntryKind::resource;
  /// Name of the compensating operation in the CompensationRegistry
  /// (models the "code of the compensating operation" in the entry).
  std::string comp_op;
  serial::Value params;
  /// For resource/mixed entries: where the resource lives and its name.
  NodeId resource_node;
  std::string resource;

  friend bool operator==(const OperationEntry&, const OperationEntry&) =
      default;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t byte_size() const;
};

struct EndOfStepEntry {
  NodeId node;  ///< node that executed the step
  /// Sec. 4.4.1: flag telling the optimized algorithm whether any mixed
  /// compensation entry exists in this step (agent must travel if so).
  bool has_mixed = false;
  /// Sec. 3.2: the step performed a non-compensatable operation; rollback
  /// across this step is impossible.
  bool cannot_compensate = false;
  /// Sec. 4.3 discussion: alternative nodes able to run the compensation
  /// if `node` is permanently unreachable (fault-tolerant extension).
  std::vector<NodeId> alternatives;

  friend bool operator==(const EndOfStepEntry&, const EndOfStepEntry&) =
      default;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t byte_size() const;
};

enum class EntryKind : std::uint8_t {
  savepoint = 0,
  begin_of_step = 1,
  operation = 2,
  end_of_step = 3,
};

[[nodiscard]] std::string_view to_string(EntryKind k);

class LogEntry {
 public:
  LogEntry() : body_(SavepointEntry{}) {}
  LogEntry(SavepointEntry e) : body_(std::move(e)) {}      // NOLINT
  LogEntry(BeginOfStepEntry e) : body_(std::move(e)) {}    // NOLINT
  LogEntry(OperationEntry e) : body_(std::move(e)) {}      // NOLINT
  LogEntry(EndOfStepEntry e) : body_(std::move(e)) {}      // NOLINT

  [[nodiscard]] EntryKind kind() const {
    return static_cast<EntryKind>(body_.index());
  }
  [[nodiscard]] bool is_savepoint() const {
    return kind() == EntryKind::savepoint;
  }
  [[nodiscard]] const SavepointEntry& savepoint() const {
    return std::get<SavepointEntry>(body_);
  }
  [[nodiscard]] SavepointEntry& savepoint() {
    return std::get<SavepointEntry>(body_);
  }
  [[nodiscard]] const BeginOfStepEntry& begin_of_step() const {
    return std::get<BeginOfStepEntry>(body_);
  }
  [[nodiscard]] const OperationEntry& operation() const {
    return std::get<OperationEntry>(body_);
  }
  [[nodiscard]] const EndOfStepEntry& end_of_step() const {
    return std::get<EndOfStepEntry>(body_);
  }

  /// Structural equality of materialized entries.
  friend bool operator==(const LogEntry& a, const LogEntry& b) {
    return a.body_ == b.body_;
  }

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  /// Validate and step over one encoded entry without materializing it
  /// (throws DecodeError exactly when deserialize() would).
  static void skip(serial::Decoder& dec);
  [[nodiscard]] std::size_t byte_size() const;
  [[nodiscard]] std::string to_string() const;

 private:
  std::variant<SavepointEntry, BeginOfStepEntry, OperationEntry,
               EndOfStepEntry>
      body_;
};

/// The log keeps its entries in wire form: one buffer holding the entries'
/// encodings back to back, plus each entry's end offset. That is exactly
/// the bytes a migration carries, so capturing the agent writes the buffer
/// whole, re-instantiating it validates and copies it, and a delta ships
/// the appended tail verbatim. Entries are materialized only by the
/// rollback-time queries that need their contents (pop, back,
/// find_savepoint, strong_state_at, last_step_ops, last_end_of_step,
/// gc_savepoint); kind and savepoint-id scans read the tag byte and the
/// fixed-offset header fields in place.
class RollbackLog {
 public:
  void push(const SavepointEntry& e);
  void push(const BeginOfStepEntry& e);
  void push(const OperationEntry& e);
  void push(const EndOfStepEntry& e);
  void push(const LogEntry& e);
  /// Read and remove the last entry (the paper's LOG.pop()).
  [[nodiscard]] LogEntry pop();
  [[nodiscard]] LogEntry back() const;
  /// Kind of entry `i`, read from its tag byte.
  [[nodiscard]] EntryKind kind_at(std::size_t i) const;
  /// Every entry, materialized, oldest first (diagnostics and benches).
  [[nodiscard]] std::vector<LogEntry> entries() const;
  [[nodiscard]] bool empty() const { return ends_.empty(); }
  [[nodiscard]] std::size_t size() const { return ends_.size(); }
  /// Discard everything (top-level sub-itinerary completion, Sec. 4.4.2).
  void clear() {
    buf_.clear();
    ends_.clear();
    append_clean_ = false;
  }

  // --- wire form ------------------------------------------------------------
  /// The encodings of entries [first, size()), back to back.
  [[nodiscard]] std::span<const std::uint8_t> encoded_from(
      std::size_t first) const {
    return std::span<const std::uint8_t>(buf_).subspan(begin_of(first));
  }
  /// Validate `count` encoded entries at the decoder's position (a
  /// non-allocating skip pass) and append their bytes verbatim.
  void append_encoded(serial::Decoder& dec, std::uint64_t count);
  /// Whether this log's entries are, byte for byte, the first entries of
  /// `other` (delta shipping: the base's log must be a prefix of the
  /// current one). One memcmp; the encoding is prefix-free, so equal
  /// bytes mean equal entry boundaries.
  [[nodiscard]] bool is_prefix_of(const RollbackLog& other) const;

  // --- append tracking (incremental commit) -------------------------------
  // Between two durable commits a steady-state step only PUSHES entries
  // (BOS, OEs, EOS, SPs). The log tracks whether that held since the last
  // mark_baseline(): pop(), clear() and gc_savepoint() — which may rewrite
  // an interior savepoint's delta chain — break it, forcing the next
  // commit to write a full image instead of an append-only delta.
  /// Start a fresh tracking window (after decode or a durable commit).
  void mark_baseline() {
    baseline_ = static_cast<std::uint32_t>(ends_.size());
    append_clean_ = true;
  }
  /// True while only pushes happened since the last baseline.
  [[nodiscard]] bool append_clean() const { return append_clean_; }
  /// Log size at the last baseline. While clean, the entries pushed since
  /// are [baseline(), size()) and their bytes encoded_from(baseline()).
  [[nodiscard]] std::size_t baseline() const { return baseline_; }

  // --- queries used by the rollback algorithms ---------------------------
  /// The savepoint id of the last entry, if the last entry is an SP.
  [[nodiscard]] std::optional<SavepointId> trailing_savepoint() const;
  /// The last end-of-step entry, skipping trailing savepoints (where the
  /// next compensation transaction must run, Fig. 4a).
  [[nodiscard]] std::optional<EndOfStepEntry> last_end_of_step() const;
  /// Whether the log contains a savepoint with this id.
  [[nodiscard]] bool contains_savepoint(SavepointId id) const;
  /// Visit every node an entry names, read in place: each BOS and EOS
  /// node, each EOS alternative and each valid OE resource node. A node
  /// may be visited more than once.
  void for_each_node(const std::function<void(NodeId)>& visit) const;
  /// Whether an end-of-step entry flagged cannot_compensate lies after
  /// savepoint `id` (Sec. 3.2: rollback to `id` is then impossible). Scans
  /// from the end, stopping at the savepoint.
  [[nodiscard]] bool poisoned_after(SavepointId id) const;
  /// Operation entries of the last complete step segment (skipping
  /// trailing savepoint entries), in logging order. Empty when the log
  /// does not end with a BOS..EOS segment. The adaptive strategy prices
  /// shipping these against migrating the agent (Sec. 4.4.1).
  [[nodiscard]] std::vector<OperationEntry> last_step_ops() const;

  // --- savepoint garbage collection (Sec. 4.4.2) --------------------------
  /// Remove the savepoint entry with `id` (its sub-itinerary completed).
  /// This is the operation the paper calls "non-trivial if transition
  /// logging is used": the removed entry may carry chain data later
  /// entries depend on, so
  ///   * a removed delta is composed into the next data-carrying
  ///     savepoint's delta,
  ///   * a removed full image converts the next data-carrying transition
  ///     savepoint into a full image (delta applied to the image).
  /// Returns std::nullopt if the savepoint is not in the log; otherwise
  /// true when the caller must write its *next* savepoint as a full image
  /// because the chain's tail information left the log with this entry.
  std::optional<bool> gc_savepoint(SavepointId id);

  /// Reconstruct the strong-object state at savepoint `id`: walk back to
  /// the nearest full image at or before it, then apply forward deltas.
  /// Lightweight savepoints resolve to the previous data-carrying one.
  [[nodiscard]] Result<serial::Value> strong_state_at(SavepointId id) const;

  /// The savepoint entry for `id`, if present.
  [[nodiscard]] std::optional<SavepointEntry> find_savepoint(
      SavepointId id) const;
  /// The OLDEST savepoint still in the log — the farthest point a
  /// complete rollback (agent abort / cancellation) can reach. Invalid
  /// after a top-level log discard.
  [[nodiscard]] SavepointId first_savepoint() const;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  /// Wire size of the whole log (what migration pays to carry it); O(1).
  [[nodiscard]] std::size_t byte_size() const {
    return serial::varint_size(ends_.size()) + buf_.size();
  }

  /// Fig. 2-style rendering: "... SP_k BOS_n OE_n,1 .. EOS_n ...".
  [[nodiscard]] std::string to_string() const;

 private:
  [[nodiscard]] std::size_t begin_of(std::size_t i) const {
    return i == 0 ? 0 : ends_[i - 1];
  }
  /// Wire encoding of entry `i` alone.
  [[nodiscard]] std::span<const std::uint8_t> encoded_entry(
      std::size_t i) const {
    return std::span<const std::uint8_t>(buf_).subspan(
        begin_of(i), ends_[i] - begin_of(i));
  }
  /// Materialize entry `i` (0 = oldest).
  [[nodiscard]] LogEntry at(std::size_t i) const;
  /// Savepoint header fields read in place (entry `i` must be an SP).
  [[nodiscard]] SavepointId savepoint_id_at(std::size_t i) const;
  [[nodiscard]] bool savepoint_flag_at(std::size_t i,
                                       std::size_t offset) const;
  /// Index of the savepoint entry with `id`, scanning from the end.
  [[nodiscard]] std::optional<std::size_t> index_of(SavepointId id) const;
  /// Encode one entry of `size` bytes at the end of the buffer via
  /// `write(encoder)`.
  template <typename Write>
  void append(std::size_t size, const Write& write);
  /// Replace entry `i`'s bytes with `bytes` (one encoded entry, or none
  /// before erasing its offset), shifting the offsets after it.
  void splice(std::size_t i, std::span<const std::uint8_t> bytes);
  void erase_at(std::size_t i);

  serial::Bytes buf_;                // entry encodings, back to back
  std::vector<std::uint32_t> ends_;  // end offset of each entry in buf_
  // Runtime-only append tracking; not serialized. (32 bits: the entry
  // count is bounded by the 32-bit offsets above.)
  std::uint32_t baseline_ = 0;
  bool append_clean_ = true;
};

}  // namespace mar::rollback
