#include "agent/agent.h"

#include <algorithm>
#include <atomic>

#include "util/check.h"

namespace mar::agent {

namespace {
std::atomic<std::uint64_t> g_itinerary_copies{0};
}  // namespace

Itinerary& Agent::itinerary() {
  if (itinerary_.use_count() > 1) {
    itinerary_ = std::make_shared<SharedItinerary>(
        SharedItinerary{itinerary_->itinerary, {}});
    g_itinerary_copies.fetch_add(1, std::memory_order_relaxed);
  } else {
    itinerary_->wire.clear();
  }
  return itinerary_->itinerary;
}

std::uint64_t Agent::itinerary_copies() {
  return g_itinerary_copies.load(std::memory_order_relaxed);
}

std::shared_ptr<SharedItinerary> ItineraryTable::decode(AgentId agent,
                                                        serial::Decoder& dec) {
  auto& entry = live_[agent.value()];
  // An empty memo marks an itinerary edited in place: never a match.
  if (auto live = entry.lock(); live != nullptr && !live->wire.empty() &&
                                 dec.consume_if_next(live->wire)) {
    return live;
  }
  const auto mark = dec.position();
  auto fresh = std::make_shared<SharedItinerary>();
  fresh->itinerary.deserialize(dec);
  const auto wire = dec.span_since(mark);
  fresh->wire.assign(wire.begin(), wire.end());
  entry = fresh;
  if (live_.size() >= sweep_at_) {
    std::erase_if(live_, [](const auto& kv) { return kv.second.expired(); });
    sweep_at_ = std::max(kMinSweep, 2 * live_.size());
  }
  return fresh;
}

void SavepointStackEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(id.value());
  enc.write_u8(static_cast<std::uint8_t>(origin));
  enc.write_u32(depth);
}

void SavepointStackEntry::deserialize(serial::Decoder& dec) {
  id = SavepointId(dec.read_u32());
  origin = static_cast<rollback::SavepointOrigin>(dec.read_u8());
  depth = dec.read_u32();
}

SavepointId Agent::sub_savepoint(std::uint32_t levels_up) const {
  std::uint32_t seen = 0;
  for (auto it = sp_stack_.rbegin(); it != sp_stack_.rend(); ++it) {
    if (it->origin != rollback::SavepointOrigin::sub_itinerary) continue;
    if (seen == levels_up) return it->id;
    ++seen;
  }
  return SavepointId::invalid();
}

void Agent::serialize(serial::Encoder& enc) const {
  enc.write_u64(id_.value());
  enc.write_u8(static_cast<std::uint8_t>(run_state_));
  data_.serialize(enc);
  if (itinerary_->wire.empty()) {
    itinerary_->itinerary.serialize(enc);
  } else {
    enc.write_raw(itinerary_->wire);
  }
  enc.write_varint(position_.size());
  for (const auto i : position_) enc.write_u32(i);
  enc.write_varint(sp_stack_.size());
  for (const auto& e : sp_stack_) e.serialize(enc);
  enc.write_u32(next_sp_);
  enc.write_u32(rollbacks_completed_);
  enc.write_u64(parent_.value());
  enc.write_u32(result_node_.value());
  enc.write_string(result_key_);
  enc.write_bool(retain_full_log_);
  enc.write_bool(force_full_sp_);
  last_sp_strong_.serialize(enc);
  log_.serialize(enc);
}

void Agent::deserialize(serial::Decoder& dec, ItineraryTable& itineraries) {
  id_ = AgentId(dec.read_u64());
  run_state_ = static_cast<RunState>(dec.read_u8());
  data_.deserialize(dec);
  itinerary_ = itineraries.decode(id_, dec);
  position_.resize(dec.read_count());
  for (auto& i : position_) i = dec.read_u32();
  sp_stack_.resize(dec.read_count());
  for (auto& e : sp_stack_) e.deserialize(dec);
  next_sp_ = dec.read_u32();
  rollbacks_completed_ = dec.read_u32();
  parent_ = AgentId(dec.read_u64());
  result_node_ = NodeId(dec.read_u32());
  result_key_ = dec.read_string();
  retain_full_log_ = dec.read_bool();
  force_full_sp_ = dec.read_bool();
  last_sp_strong_.deserialize(dec);
  log_.deserialize(dec);
  mark_commit_baseline();  // the decoded state IS the durable state
}

std::size_t Agent::serialized_size() const {
  std::size_t n = 8 + 1;  // id, run_state
  n += data_.encoded_size();
  n += itinerary_->wire.empty() ? itinerary_->itinerary.encoded_size()
                                 : itinerary_->wire.size();
  n += serial::varint_size(position_.size()) + 4 * position_.size();
  n += serial::varint_size(sp_stack_.size()) +
       sp_stack_.size() * SavepointStackEntry::byte_size();
  n += 4 + 4 + 8 + 4;  // next_sp, rollbacks, parent, result_node
  n += serial::blob_size(result_key_.size());
  n += 1 + 1;  // retain_full_log, force_full_sp
  n += last_sp_strong_.encoded_size();
  n += log_.byte_size();
  return n;
}

serial::Bytes encode_agent(const Agent& agent) {
  const auto type = agent.type_name();
  serial::Encoder enc(serial::blob_size(type.size()) +
                      agent.serialized_size());
  enc.write_string(type);
  agent.serialize(enc);
  return std::move(enc).take();
}

std::unique_ptr<Agent> decode_agent(AgentTypeRegistry& registry,
                                    std::span<const std::uint8_t> bytes) {
  serial::Decoder dec(bytes);
  const auto type = dec.read_string_view();
  // Wire input is untrusted: an unknown type is a malformed buffer, not
  // a programming error.
  if (!registry.contains(type)) {
    throw serial::DecodeError("unknown agent type: " + std::string(type));
  }
  auto agent = registry.create(type);
  agent->deserialize(dec, registry.itineraries_);
  dec.expect_end();
  return agent;
}

std::unique_ptr<Agent> clone_agent(const AgentTypeRegistry& registry,
                                  const Agent& agent) {
  // The copy constructor copies the slots as they are instead of
  // declaring them anew; the itinerary pointer is shared, not deep-copied.
  auto copy = registry.copy(agent.type_name(), agent);
  copy->mark_commit_baseline();
  return copy;
}

// ---------------------------------------------------------------------------
// Incremental capture
// ---------------------------------------------------------------------------
//
// Delta record wire format (version-free; a delta is only ever decoded
// against the base image it was produced from, inside one storage record):
//
//   u8      run_state
//   varint  |position| + u32 each
//   varint  |sp_stack| + entries          (small; carried whole)
//   u32     next_sp
//   u32     rollbacks_completed
//   u64     parent
//   u32     result_node
//   string  result_key
//   bool    retain_full_log
//   bool    force_full_sp
//   bool    last_sp_strong changed        [+ Value when set]
//   u8      strong section: 0 = sparse slots, 1 = full map
//           sparse: varint n + (string name, Value) each; full: Value
//   u8      weak section: same encoding
//   varint  appended log entries + their LogEntry encodings, verbatim

namespace {
constexpr std::uint8_t kSparseSlots = 0;
constexpr std::uint8_t kFullMap = 1;

/// The delta record's platform-field header (everything above the data
/// sections), shared by both delta encoders so the wire format cannot
/// drift between them; apply_agent_delta is the single decoder.
/// `next_sp` is passed in because the helper is not a friend of Agent.
void encode_delta_header(serial::Encoder& enc, const Agent& agent,
                         std::uint32_t next_sp, bool sp_changed) {
  enc.write_u8(static_cast<std::uint8_t>(agent.run_state()));
  enc.write_varint(agent.position().size());
  for (const auto i : agent.position()) enc.write_u32(i);
  enc.write_varint(agent.savepoint_stack().size());
  for (const auto& e : agent.savepoint_stack()) e.serialize(enc);
  enc.write_u32(next_sp);
  enc.write_u32(agent.rollbacks_completed());
  enc.write_u64(agent.parent().value());
  enc.write_u32(agent.result_node().value());
  enc.write_string(agent.result_key());
  enc.write_bool(agent.retain_full_log());
  enc.write_bool(agent.force_full_savepoint());
  enc.write_bool(sp_changed);
  if (sp_changed) agent.last_savepoint_strong().serialize(enc);
}

void encode_data_section(serial::Encoder& enc, const serial::Value& map,
                         const std::set<std::string>& dirty, bool all_dirty) {
  if (all_dirty) {
    enc.write_u8(kFullMap);
    map.serialize(enc);
    return;
  }
  enc.write_u8(kSparseSlots);
  enc.write_varint(dirty.size());
  for (const auto& name : dirty) {
    enc.write_string(name);
    // Top-level slots are never removed outside whole-map replacement
    // (which takes the full-map branch), so every dirty name resolves.
    map.at(name).serialize(enc);
  }
}
}  // namespace

serial::Bytes encode_agent_delta(const Agent& agent) {
  MAR_CHECK_MSG(agent.delta_ready(),
                "agent changes are not append-only; a full image is due");
  // Deltas are small by design; pre-sizing would run the dirty-slot walk
  // twice for a frame that rarely outgrows the first growth step.
  serial::Encoder enc;  // mar-lint: small-frame
  encode_delta_header(enc, agent, agent.next_sp_, agent.last_sp_dirty_);
  const auto& data = agent.data_;
  encode_data_section(enc, data.strong_image(), data.dirty_strong(),
                      data.strong_all_dirty());
  encode_data_section(enc, data.weak_image(), data.dirty_weak(),
                      data.weak_all_dirty());
  const auto& log = agent.log_;
  enc.write_varint(log.size() - log.baseline());
  enc.write_raw(log.encoded_from(log.baseline()));
  return std::move(enc).take();
}

void apply_agent_delta(Agent& agent, std::span<const std::uint8_t> delta) {
  serial::Decoder dec(delta);
  agent.run_state_ = static_cast<Agent::RunState>(dec.read_u8());
  agent.position_.resize(dec.read_count());
  for (auto& i : agent.position_) i = dec.read_u32();
  agent.sp_stack_.resize(dec.read_count());
  for (auto& e : agent.sp_stack_) e.deserialize(dec);
  agent.next_sp_ = dec.read_u32();
  agent.rollbacks_completed_ = dec.read_u32();
  agent.parent_ = AgentId(dec.read_u64());
  agent.result_node_ = NodeId(dec.read_u32());
  agent.result_key_ = dec.read_string();
  agent.retain_full_log_ = dec.read_bool();
  agent.force_full_sp_ = dec.read_bool();
  if (dec.read_bool()) agent.last_sp_strong_.deserialize(dec);
  for (const bool strong : {true, false}) {
    const auto mode = dec.read_u8();
    if (mode == kFullMap) {
      Value map;
      map.deserialize(dec);
      if (strong) {
        agent.data_.restore_strong(std::move(map));
      } else {
        agent.data_.replace_weak(std::move(map));
      }
      continue;
    }
    if (mode != kSparseSlots) {
      throw serial::DecodeError("bad delta data-section mode");
    }
    const auto n = dec.read_count();
    for (std::uint64_t i = 0; i < n; ++i) {
      auto name = dec.read_string();
      Value v;
      v.deserialize(dec);
      if (strong) {
        agent.data_.set_strong_slot(name, std::move(v));
      } else {
        agent.data_.set_weak_slot(name, std::move(v));
      }
    }
  }
  agent.log_.append_encoded(dec, dec.read_count());
  dec.expect_end();
  agent.mark_commit_baseline();  // now bit-identical to the durable state
}

std::optional<serial::Bytes> encode_agent_delta_between(const Agent& base,
                                                        const Agent& cur) {
  // The delta format carries appended log entries only: usable iff the
  // base's log is a byte prefix of the current log. Forward execution
  // only pushes, so this holds across any number of committed steps; a
  // rollback (pop/clear/GC) in between breaks it and forces a full image.
  if (!base.log_.is_prefix_of(cur.log_)) return std::nullopt;
  // The itinerary is immutable after launch and lives in the base image
  // only; everything else is diffed or carried whole.
  serial::Encoder enc;  // mar-lint: small-frame
  encode_delta_header(enc, cur, cur.next_sp_,
                      !(base.last_sp_strong_ == cur.last_sp_strong_));
  // Data sections: sparse slots that differ from the base; a slot removed
  // from the base degrades the section to a full map (the sparse form can
  // only add/overwrite).
  const auto encode_diff_section = [&enc](const Value& base_map,
                                          const Value& cur_map) {
    for (const auto& [name, v] : base_map.as_map()) {
      (void)v;
      if (!cur_map.has(name)) {
        enc.write_u8(kFullMap);
        cur_map.serialize(enc);
        return;
      }
    }
    std::vector<const std::string*> changed;
    for (const auto& [name, v] : cur_map.as_map()) {
      if (!base_map.has(name) || !(base_map.at(name) == v)) {
        changed.push_back(&name);
      }
    }
    enc.write_u8(kSparseSlots);
    enc.write_varint(changed.size());
    for (const auto* name : changed) {
      enc.write_string(*name);
      cur_map.at(*name).serialize(enc);
    }
  };
  encode_diff_section(base.data_.strong_image(), cur.data_.strong_image());
  encode_diff_section(base.data_.weak_image(), cur.data_.weak_image());
  enc.write_varint(cur.log_.size() - base.log_.size());
  enc.write_raw(cur.log_.encoded_from(base.log_.size()));
  return std::move(enc).take();
}

std::unique_ptr<Agent> decode_agent_segments(
    AgentTypeRegistry& registry,
    const std::vector<serial::Bytes>& segments) {
  MAR_CHECK_MSG(!segments.empty(), "agent record has no base segment");
  auto agent = decode_agent(registry, segments.front());
  for (std::size_t i = 1; i < segments.size(); ++i) {
    apply_agent_delta(*agent, segments[i]);
  }
  return agent;
}

}  // namespace mar::agent
