// The mobile agent base class.
//
// Agents are autonomous objects whose execution proceeds in *steps*, one
// per visited node, dispatched by name through run_step() (the paper's
// "single method of the agent object" per step). ALL application state
// must live in the DataSpace — the platform captures an agent for
// migration by serializing exactly: identity, data space, itinerary,
// position, savepoint bookkeeping and the attached rollback log (Sec. 4.2:
// "the log is attached to the agent and hence migrates with the agent").
//
// Subclasses therefore keep no mutable C++ members of their own; they
// declare strong/weak slots in their constructor and register their
// compensating operations in a CompensationRegistry at world setup.
//
// The itinerary is immutable after launch. An agent holds it as one
// shared object that also memoizes its wire encoding: copies of the agent
// (clone_agent, the delta-shipping channel bases) share it, capture
// copies the memoized bytes instead of walking the entries, and a decode
// reuses a live itinerary of the same agent whose memo equals the
// image's bytes instead of rebuilding the tree.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "agent/data_space.h"
#include "agent/itinerary.h"
#include "rollback/log.h"
#include "serial/serializable.h"
#include "util/ids.h"

namespace mar::agent {

class StepContext;
class AgentTypeRegistry;

/// An itinerary plus its memoized serialize() bytes. Immutable while
/// shared; `wire` is empty when the itinerary was built (or edited)
/// through Agent's mutable accessor rather than decoded.
struct SharedItinerary {
  Itinerary itinerary;
  serial::Bytes wire;
};

/// The live decoded itineraries of one AgentTypeRegistry, one weak
/// reference per agent id: the newest decode of that agent. An agent's
/// itinerary never changes after launch, so consecutive images of one
/// agent carry the same bytes, and while any copy of the agent is alive
/// (a resident agent, a channel base, a staged handoff) its next decode
/// shares that copy's itinerary instead of rebuilding it.
class ItineraryTable {
 public:
  /// The itinerary encoded at `dec`'s position in an image of `agent`.
  /// A live entry whose memo equals the next bytes is shared (one
  /// memcmp, so a hit is exact) and the bytes are consumed; otherwise the
  /// bytes are decoded into a new object, which becomes the entry.
  [[nodiscard]] std::shared_ptr<SharedItinerary> decode(AgentId agent,
                                                        serial::Decoder& dec);
  /// Entries held; expired ones count until the next sweep.
  [[nodiscard]] std::size_t size() const { return live_.size(); }

 private:
  static constexpr std::size_t kMinSweep = 64;
  std::unordered_map<std::uint64_t, std::weak_ptr<SharedItinerary>> live_;
  /// Size at which the next new entry sweeps out the expired ones; reset
  /// to twice the survivors, so the sweeps cost O(1) per decode and the
  /// table stays within twice the agents alive.
  std::size_t sweep_at_ = kMinSweep;
};

/// Entry of the agent's savepoint stack: the savepoints that can currently
/// be targeted by a rollback, innermost last.
struct SavepointStackEntry {
  SavepointId id;
  rollback::SavepointOrigin origin = rollback::SavepointOrigin::adhoc;
  /// Nesting depth of the owning sub-itinerary (sub_itinerary origin).
  std::uint32_t depth = 0;

  void serialize(serial::Encoder& enc) const;
  void deserialize(serial::Decoder& dec);
  [[nodiscard]] static constexpr std::size_t byte_size() { return 4 + 1 + 4; }
};

class Agent {
 public:
  enum class RunState : std::uint8_t { fresh = 0, running = 1, done = 2 };

  virtual ~Agent() = default;

  /// Registered type name used to re-instantiate the agent after transfer.
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// Execute the step named `step` (from the itinerary's step entry).
  virtual void run_step(const std::string& step, StepContext& ctx) = 0;

  // --- application-visible state -------------------------------------------
  [[nodiscard]] DataSpace& data() { return data_; }
  [[nodiscard]] const DataSpace& data() const { return data_; }
  /// Builder access before launch: unshares first (copying the itinerary
  /// when another agent shares it) and drops the byte memo, so edits never
  /// reach another agent. Platform code reads through the const view.
  [[nodiscard]] Itinerary& itinerary();
  [[nodiscard]] const Itinerary& itinerary() const {
    return itinerary_->itinerary;
  }
  /// Itinerary copies the mutable accessor made so far, process-wide
  /// (tests assert that the hop path makes none).
  [[nodiscard]] static std::uint64_t itinerary_copies();

  // --- platform state --------------------------------------------------------
  [[nodiscard]] AgentId id() const { return id_; }
  void set_id(AgentId id) { id_ = id; }
  [[nodiscard]] RunState run_state() const { return run_state_; }
  void set_run_state(RunState s) { run_state_ = s; }
  [[nodiscard]] const Position& position() const { return position_; }
  void set_position(Position p) { position_ = std::move(p); }

  [[nodiscard]] rollback::RollbackLog& log() { return log_; }
  [[nodiscard]] const rollback::RollbackLog& log() const { return log_; }

  [[nodiscard]] std::vector<SavepointStackEntry>& savepoint_stack() {
    return sp_stack_;
  }
  [[nodiscard]] const std::vector<SavepointStackEntry>& savepoint_stack()
      const {
    return sp_stack_;
  }

  /// Allocate the next savepoint id (monotone within the agent).
  [[nodiscard]] SavepointId allocate_savepoint_id() {
    return SavepointId(next_sp_++);
  }

  /// Number of partial rollbacks this agent has completed. Maintained by
  /// the platform inside the transaction that finishes a rollback, so it
  /// is durable — and it is deliberately NOT rolled back itself: Sec. 3.2
  /// requires the application to "deal with the changed situation" after
  /// compensation, which it can only do if it can observe that a rollback
  /// happened. Without this signal an agent whose step logic
  /// deterministically re-requests the same rollback would livelock.
  [[nodiscard]] std::uint32_t rollbacks_completed() const {
    return rollbacks_completed_;
  }
  void note_rollback_completed() { ++rollbacks_completed_; }

  // --- multi-agent executions (the paper's Sec. 6 future work) -------------
  /// Spawning agent's id; invalid for top-level agents.
  [[nodiscard]] AgentId parent() const { return parent_; }
  void set_parent(AgentId parent) { parent_ = parent; }
  /// Where (node / mailbox key) the platform delivers this agent's result
  /// when it terminates. Empty key = no delivery.
  [[nodiscard]] NodeId result_node() const { return result_node_; }
  [[nodiscard]] const std::string& result_key() const { return result_key_; }
  void set_result_target(NodeId node, std::string key) {
    result_node_ = node;
    result_key_ = std::move(key);
  }
  /// Retain the complete rollback log: suppress the Sec. 4.4.2 top-level
  /// discard and keep the launch savepoint, so a COMPLETE rollback stays
  /// possible for the agent's whole life. Set automatically for spawned
  /// children — the compensating operation of their spawn must be able to
  /// roll them back even after they finish.
  [[nodiscard]] bool retain_full_log() const { return retain_full_log_; }
  void set_retain_full_log(bool retain) { retain_full_log_ = retain; }

  /// Innermost active sub-itinerary savepoint, `levels_up` levels out
  /// (0 = current sub-itinerary). Invalid id if there is no such level.
  [[nodiscard]] SavepointId sub_savepoint(std::uint32_t levels_up = 0) const;

  /// Transition-logging bookkeeping: strong-object state at the last
  /// data-carrying savepoint, and whether the next savepoint must be a
  /// full image (after log discard or chain-breaking GC).
  [[nodiscard]] const Value& last_savepoint_strong() const {
    return last_sp_strong_;
  }
  void set_last_savepoint_strong(Value v) {
    last_sp_strong_ = std::move(v);
    last_sp_dirty_ = true;
  }
  [[nodiscard]] bool force_full_savepoint() const { return force_full_sp_; }
  void set_force_full_savepoint(bool f) { force_full_sp_ = f; }

  // --- incremental commit (delta savepoints) ---------------------------------
  /// Whether the changes since the last baseline are expressible as an
  /// append-only delta: the rollback log saw only pushes. (Dirty data
  /// slots degrade the delta's data section to a full map, never the
  /// delta itself.)
  [[nodiscard]] bool delta_ready() const { return log_.append_clean(); }
  /// Start a fresh change-tracking window. Called after decode and after
  /// every durable commit of this in-memory instance, so deltas always
  /// describe "changes since the durable image".
  void mark_commit_baseline() {
    data_.clear_dirty();
    log_.mark_baseline();
    last_sp_dirty_ = false;
  }
  [[nodiscard]] bool last_savepoint_strong_dirty() const {
    return last_sp_dirty_;
  }

  // --- capture / re-instantiation -------------------------------------------
  void serialize(serial::Encoder& enc) const;
  /// Exact wire size of serialize() (pre-sizing full images).
  [[nodiscard]] std::size_t serialized_size() const;

 protected:
  Agent() = default;
  /// Copies are whole objects made through the type registry
  /// (clone_agent); the base part is never copied or assigned alone.
  Agent(const Agent&) = default;
  Agent& operator=(const Agent&) = delete;

 private:
  /// decode_agent's body: restore every member from `dec`, taking the
  /// itinerary from `itineraries`.
  void deserialize(serial::Decoder& dec, ItineraryTable& itineraries);

  AgentId id_;
  // The one-byte fields share the padding after id_.
  RunState run_state_ = RunState::fresh;
  bool retain_full_log_ = false;
  bool force_full_sp_ = false;
  /// Runtime-only: last_sp_strong_ changed since the baseline.
  bool last_sp_dirty_ = false;
  DataSpace data_;
  std::shared_ptr<SharedItinerary> itinerary_ =
      std::make_shared<SharedItinerary>();
  Position position_;
  std::vector<SavepointStackEntry> sp_stack_;
  std::uint32_t next_sp_ = 1;
  std::uint32_t rollbacks_completed_ = 0;
  AgentId parent_;
  NodeId result_node_;
  std::string result_key_;
  Value last_sp_strong_;
  rollback::RollbackLog log_;

  friend std::unique_ptr<Agent> decode_agent(
      AgentTypeRegistry& registry, std::span<const std::uint8_t> bytes);
  friend serial::Bytes encode_agent_delta(const Agent& agent);
  friend void apply_agent_delta(Agent& agent,
                                std::span<const std::uint8_t> delta);
  friend std::optional<serial::Bytes> encode_agent_delta_between(
      const Agent& base, const Agent& cur);
};

/// Registry of agent types shared by all nodes of a Platform (code
/// availability), and the table of the Platform's live decoded
/// itineraries. Like the rest of a world it is used by one thread.
class AgentTypeRegistry : public serial::TypeRegistry<Agent> {
 public:
  [[nodiscard]] const ItineraryTable& itineraries() const {
    return itineraries_;
  }

 private:
  friend std::unique_ptr<Agent> decode_agent(
      AgentTypeRegistry& registry, std::span<const std::uint8_t> bytes);
  ItineraryTable itineraries_;
};

/// Capture an agent: type name + full state. Single allocation: the
/// buffer is pre-sized from the agent's exact serialized size.
[[nodiscard]] serial::Bytes encode_agent(const Agent& agent);
/// Re-instantiate an agent from captured bytes via the registry (the one
/// place agents are created by type name). The itinerary is shared with
/// a live decode of the same agent when its bytes match.
[[nodiscard]] std::unique_ptr<Agent> decode_agent(
    AgentTypeRegistry& registry, std::span<const std::uint8_t> bytes);
/// An independent copy of `agent`, equal to decode_agent(encode_agent())
/// without the round trip: the type's copy constructor shares the
/// immutable itinerary and copies the rest; the copy's commit baseline is
/// set as decode sets it.
[[nodiscard]] std::unique_ptr<Agent> clone_agent(
    const AgentTypeRegistry& registry, const Agent& agent);

// --- incremental capture (delta savepoint commits) -------------------------
// A long-lived agent's durable image is a BASE full image plus a chain of
// per-step DELTAS (Sec. 4.2's transition logging applied to the commit
// path itself): each delta carries the step's appended log entries, the
// dirty data-space slots and the small platform fields. Reconstructing
// base + deltas yields an agent bit-identical to a full capture.
//
// Preconditions: encode_agent_delta requires agent.delta_ready() — the
// log saw only appends since the last mark_commit_baseline(). The
// itinerary is immutable after launch and therefore lives only in the
// base image.

/// Capture the changes since the last baseline as a delta record.
[[nodiscard]] serial::Bytes encode_agent_delta(const Agent& agent);
/// Diff two captures of the SAME agent (delta-shipping migrations): a
/// delta in the apply_agent_delta format transforming `base` into `cur`,
/// or nullopt when `cur`'s rollback log does not extend `base`'s (a
/// rollback ran in between) — the caller ships a full image instead.
/// Unlike encode_agent_delta this needs no dirty tracking: the data
/// sections are diffed slot by slot against the base.
[[nodiscard]] std::optional<serial::Bytes> encode_agent_delta_between(
    const Agent& base, const Agent& cur);
/// Apply a delta produced by encode_agent_delta to the predecessor state.
void apply_agent_delta(Agent& agent, std::span<const std::uint8_t> delta);
/// Reconstruct an agent from its stable record: segments[0] is a full
/// image (encode_agent format), the rest are deltas, oldest first.
[[nodiscard]] std::unique_ptr<Agent> decode_agent_segments(
    AgentTypeRegistry& registry,
    const std::vector<serial::Bytes>& segments);

}  // namespace mar::agent
