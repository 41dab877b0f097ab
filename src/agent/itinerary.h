// Hierarchical, flexible itineraries (paper Sec. 4.4.2, Fig. 6; ref [14]).
//
// An itinerary is a sequence of entries; an entry is a *step entry*
// (method to execute / node to execute it on, plus alternative nodes for
// the fault-tolerant execution of ref [11]), a nested *sub-itinerary*, or
// an *alternatives entry* — a list of option sub-itineraries of which
// exactly one is executed ("entries which have to be executed
// alternatively", Sec. 4.4.2 / ref [14]). Step entries may carry a
// *precondition* over the agent's weakly reversible data ("complex rules
// which specify under which conditions an entry has to be executed");
// unsatisfied steps are skipped.
//
// The paper's integration rules implemented by the platform on top of
// this structure:
//
//   * the main itinerary may contain only sub-itineraries — completing a
//     top-level sub-itinerary discards the whole rollback log;
//   * entering a sub-itinerary (or an alternatives option) automatically
//     establishes a savepoint; completing it garbage-collects that
//     savepoint entry;
//   * a rollback can target the savepoint of any *currently executing*
//     (enclosing) sub-itinerary;
//   * when a step fails permanently inside an alternatives option, the
//     platform rolls the option back to its entry savepoint and enters
//     the next option; with the options exhausted the failure propagates
//     outward (innermost non-vital sub, else agent failure).
//
// Positions into the hierarchy are paths of indices (rollback::Position);
// an alternatives entry consumes TWO indices: the entry's index, then the
// chosen option's. This header provides the DFS navigation and the
// entered/exited sub-itinerary computations the platform needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "rollback/log.h"
#include "serial/serializable.h"
#include "util/ids.h"
#include "util/result.h"

namespace mar::agent {

using rollback::Position;

/// A precondition over the agent's weakly reversible data (ref [14]'s
/// per-entry conditions): compare the weak slot `slot` with `literal`.
struct Condition {
  enum class Op : std::uint8_t {
    exists = 0,      ///< slot is present and non-null
    not_exists = 1,  ///< slot is absent or null
    eq = 2,
    ne = 3,
    lt = 4,  ///< integer comparison
    le = 5,
    gt = 6,
    ge = 7,
  };
  std::string slot;
  Op op = Op::exists;
  serial::Value literal;

  /// Evaluate against the agent's weak-slot map.
  [[nodiscard]] bool eval(const serial::Value& weak) const;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t encoded_size() const;
  [[nodiscard]] std::string to_string() const;
};

/// A step's node list: the primary node first, then the alternatives.
/// Up to two nodes live in place; a longer list owns one exactly sized
/// heap block. Step entries are built once and then only read, so the
/// list has no growth slack and no in-place growth either: a one- or
/// two-node step costs no allocation at all.
class NodeList {
 public:
  using value_type = NodeId;
  using iterator = const NodeId*;
  using const_iterator = const NodeId*;

  NodeList() = default;
  explicit NodeList(NodeId node) : size_(1) { inline_[0] = node; }
  explicit NodeList(std::span<const NodeId> nodes) { assign(nodes); }
  NodeList(const NodeList& other) { assign(other); }
  NodeList(NodeList&& other) noexcept { take(other); }
  NodeList& operator=(const NodeList& other) {
    if (this != &other) assign(other);
    return *this;
  }
  NodeList& operator=(NodeList&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~NodeList() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const NodeId* data() const {
    return on_heap() ? heap_ : inline_;
  }
  [[nodiscard]] const NodeId* begin() const { return data(); }
  [[nodiscard]] const NodeId* end() const { return data() + size_; }
  [[nodiscard]] NodeId operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] NodeId front() const { return data()[0]; }
  operator std::span<const NodeId>() const { return {data(), size_}; }  // NOLINT

  friend bool operator==(const NodeList& a, const NodeList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

  /// Wire form: a varint count, then each node as a u32.
  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t encoded_size() const;

 private:
  static constexpr std::size_t kInline = 2;
  [[nodiscard]] bool on_heap() const { return size_ > kInline; }
  /// Hold `n` nodes of unspecified value; returns where they go.
  NodeId* reset(std::size_t n);
  void assign(std::span<const NodeId> nodes);
  /// Steal `other`'s nodes, leaving it empty; this list holds nothing.
  void take(NodeList& other) noexcept;
  void release() noexcept;

  std::uint32_t size_ = 0;
  union {
    NodeId inline_[kInline] = {};
    NodeId* heap_;
  };
};

/// A step entry: which method to run, and where. `locations.front()` is
/// the primary node; the rest are alternatives tried in turn when the
/// primary is unreachable (fault-tolerant step execution, ref [11]).
/// Entries are read in place (Itinerary::step_at); copying one copies
/// its method name and, beyond two nodes, its node block.
struct StepEntry {
  std::string method;
  NodeList locations;
  /// Executed only when satisfied (skipped otherwise); null = always
  /// executed. Immutable, so copies of the entry share it.
  std::shared_ptr<const Condition> when;

  [[nodiscard]] NodeId primary() const { return locations.front(); }

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t encoded_size() const;
};

class Itinerary {
 public:
  class Entry;
  /// The alternatives entry: options tried in order; exactly one runs.
  struct AltEntry {
    std::vector<Itinerary> options;
  };

  Itinerary() = default;

  // --- builder -------------------------------------------------------------
  Itinerary& step(std::string method, NodeId node);
  Itinerary& step(std::string method, std::vector<NodeId> locations);
  /// A conditional step (ref [14] preconditions).
  Itinerary& step_if(std::string method, NodeId node, Condition when);
  /// Append a nested sub-itinerary. `vital` follows the nested-saga
  /// terminology the paper adopts in Sec. 5: when a *non-vital* sub fails
  /// permanently, the platform abandons it (rolls it back to its entry
  /// savepoint and skips past it) instead of failing the whole agent.
  Itinerary& sub(Itinerary nested, bool vital = true);
  /// Append an alternatives entry (ref [14]): `options` are tried in
  /// order; a permanent failure inside one rolls it back and enters the
  /// next.
  Itinerary& alt(std::vector<Itinerary> options);

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Validate the Sec. 4.4.2 structural rule for a *main* itinerary: only
  /// sub-itinerary entries at the top level, and at least one of them, and
  /// no empty sub-itineraries or empty alternatives anywhere.
  [[nodiscard]] Status validate_main() const;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  /// Exact wire size of serialize() (pre-sizing full agent images).
  [[nodiscard]] std::size_t encoded_size() const;

  // --- navigation ------------------------------------------------------------
  /// Position of the first step in DFS order, if any. Alternatives open
  /// with their first option.
  [[nodiscard]] std::optional<Position> first_step() const;
  /// Position of the step following `pos` in DFS order, if any. Leaving
  /// an alternatives option skips the remaining options (they are
  /// alternatives, not a sequence).
  [[nodiscard]] std::optional<Position> next_step(const Position& pos) const;
  /// First step under the container addressed by `prefix` (a
  /// sub-itinerary or an alternatives option), if any.
  [[nodiscard]] std::optional<Position> first_step_under(
      const Position& prefix) const;
  /// The step entry at `pos` (checked).
  [[nodiscard]] const StepEntry& step_at(const Position& pos) const;
  /// Whether `pos` addresses a step entry.
  [[nodiscard]] bool valid_step(const Position& pos) const;
  /// Visit every node a step at or after `pos` (DFS order) may run on:
  /// all locations of each step, conditional steps included, and every
  /// option of each alternatives entry on the way. A `pos` addressing a
  /// sub-itinerary covers all of it; an empty `pos` covers the whole
  /// itinerary. A node may be visited more than once.
  void for_each_location_from(std::span<const std::uint32_t> pos,
                              const std::function<void(NodeId)>& visit) const;

  /// What a (proper, non-empty) position prefix addresses.
  enum class PrefixKind {
    sub,         ///< a sub-itinerary entry
    alt,         ///< an alternatives entry (the entry index itself)
    alt_option,  ///< one option inside an alternatives entry
    step,        ///< a step entry (only for full step positions)
    invalid,
  };
  [[nodiscard]] PrefixKind prefix_kind(const Position& prefix) const;
  /// The entry addressed by a non-empty position ending at an entry index
  /// (kinds sub / alt / step — NOT alt_option).
  [[nodiscard]] const Entry& entry_at(const Position& pos) const;
  /// For an `alt_option` prefix: how many options its alternatives entry
  /// has (the option index is prefix.back()).
  [[nodiscard]] std::size_t alt_option_count(const Position& prefix) const;

  /// The nesting-level prefixes active at `pos`: every proper prefix of
  /// `pos` except the whole position (which addresses the step itself).
  /// A prefix of length d identifies a nesting level at depth d
  /// (sub-itineraries, alternatives entries and their options all count).
  [[nodiscard]] static std::vector<Position> active_subs(const Position& pos);

  /// Nesting levels exited when moving from `from` to `to` (innermost
  /// first). Pass an empty `to` for "execution finished".
  [[nodiscard]] static std::vector<Position> exited_subs(const Position& from,
                                                        const Position& to);
  /// Nesting levels entered when moving from `from` to `to` (outermost
  /// first). Pass an empty `from` for "execution starts".
  [[nodiscard]] static std::vector<Position> entered_subs(const Position& from,
                                                          const Position& to);

  [[nodiscard]] std::string to_string() const;

 private:
  /// Walk `pos[0..len)` down the hierarchy; the returned container is the
  /// itinerary the next index would address. Alternatives consume two
  /// indices (entry, option); `len` must not stop between them.
  [[nodiscard]] const Itinerary* itinerary_at_prefix(const Position& pos,
                                                     std::size_t len) const;
  /// Length of the DFS path to the first step at or after entry `index`
  /// (0: none), appended to `out` when given.
  std::size_t first_step_path(std::size_t index, Position* out) const;
  /// `prefix` plus that path in `in`, in one allocation.
  [[nodiscard]] static std::optional<Position> extend_to_first_step(
      std::span<const std::uint32_t> prefix, const Itinerary& in,
      std::size_t index);
  /// Visit the locations of every step in entries [from, size()).
  void visit_locations(const std::function<void(NodeId)>& visit,
                       std::size_t from = 0) const;

  std::vector<Entry> entries_;
};

/// One itinerary entry: a step, a nested sub-itinerary, or alternatives.
class Itinerary::Entry {
 public:
  Entry() : body_(StepEntry{}) {}
  explicit Entry(StepEntry s) : body_(std::move(s)) {}
  explicit Entry(Itinerary i) : body_(std::move(i)) {}
  explicit Entry(AltEntry a) : body_(std::move(a)) {}

  [[nodiscard]] bool is_step() const {
    return std::holds_alternative<StepEntry>(body_);
  }
  [[nodiscard]] bool is_sub() const {
    return std::holds_alternative<Itinerary>(body_);
  }
  [[nodiscard]] bool is_alt() const {
    return std::holds_alternative<AltEntry>(body_);
  }
  [[nodiscard]] const StepEntry& step() const {
    return std::get<StepEntry>(body_);
  }
  [[nodiscard]] const Itinerary& sub() const {
    return std::get<Itinerary>(body_);
  }
  [[nodiscard]] const AltEntry& alt() const {
    return std::get<AltEntry>(body_);
  }
  /// Non-vital sub-itineraries may be abandoned on permanent failure
  /// (Sec. 5: "non vital sub-sagas can be realized in our model").
  [[nodiscard]] bool vital() const { return vital_; }
  void set_vital(bool vital) { vital_ = vital; }

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] std::size_t encoded_size() const;

 private:
  std::variant<StepEntry, Itinerary, AltEntry> body_;
  bool vital_ = true;
};

}  // namespace mar::agent
