#include "rollback/log.h"

#include <cstdint>
#include <cstring>
#include <sstream>

#include "util/check.h"

namespace mar::rollback {

std::string_view to_string(OpEntryKind k) {
  switch (k) {
    case OpEntryKind::resource: return "RCE";
    case OpEntryKind::agent: return "ACE";
    case OpEntryKind::mixed: return "MCE";
  }
  return "?";
}

std::string_view to_string(EntryKind k) {
  switch (k) {
    case EntryKind::savepoint: return "SP";
    case EntryKind::begin_of_step: return "BOS";
    case EntryKind::operation: return "OE";
    case EntryKind::end_of_step: return "EOS";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Entry serialization
// ---------------------------------------------------------------------------

void SavepointEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(id.value());
  enc.write_u8(static_cast<std::uint8_t>(origin));
  enc.write_u32(depth);
  enc.write_bool(lightweight);
  enc.write_bool(transition);
  image.serialize(enc);
  delta.serialize(enc);
  enc.write_varint(resume_position.size());
  for (const auto i : resume_position) enc.write_u32(i);
}

void SavepointEntry::deserialize(serial::Decoder& dec) {
  id = SavepointId(dec.read_u32());
  origin = static_cast<SavepointOrigin>(dec.read_u8());
  depth = dec.read_u32();
  lightweight = dec.read_bool();
  transition = dec.read_bool();
  image.deserialize(dec);
  delta.deserialize(dec);
  resume_position.resize(dec.read_count());
  for (auto& i : resume_position) i = dec.read_u32();
}

std::size_t SavepointEntry::byte_size() const {
  return 4 + 1 + 4 + 1 + 1 + image.encoded_size() + delta.encoded_size() +
         serial::varint_size(resume_position.size()) +
         4 * resume_position.size();
}

void BeginOfStepEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(node.value());
  enc.write_string(step_name);
}

void BeginOfStepEntry::deserialize(serial::Decoder& dec) {
  node = NodeId(dec.read_u32());
  step_name = dec.read_string();
}

std::size_t BeginOfStepEntry::byte_size() const {
  return 4 + serial::blob_size(step_name.size());
}

void OperationEntry::serialize(serial::Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind));
  enc.write_string(comp_op);
  params.serialize(enc);
  enc.write_u32(resource_node.value());
  enc.write_string(resource);
}

void OperationEntry::deserialize(serial::Decoder& dec) {
  kind = static_cast<OpEntryKind>(dec.read_u8());
  comp_op = dec.read_string();
  params.deserialize(dec);
  resource_node = NodeId(dec.read_u32());
  resource = dec.read_string();
}

std::size_t OperationEntry::byte_size() const {
  return 1 + serial::blob_size(comp_op.size()) + params.encoded_size() + 4 +
         serial::blob_size(resource.size());
}

void EndOfStepEntry::serialize(serial::Encoder& enc) const {
  enc.write_u32(node.value());
  enc.write_bool(has_mixed);
  enc.write_bool(cannot_compensate);
  enc.write_varint(alternatives.size());
  for (const auto n : alternatives) enc.write_u32(n.value());
}

void EndOfStepEntry::deserialize(serial::Decoder& dec) {
  node = NodeId(dec.read_u32());
  has_mixed = dec.read_bool();
  cannot_compensate = dec.read_bool();
  alternatives.resize(dec.read_count());
  for (auto& n : alternatives) n = NodeId(dec.read_u32());
}

std::size_t EndOfStepEntry::byte_size() const {
  return 4 + 1 + 1 + serial::varint_size(alternatives.size()) +
         4 * alternatives.size();
}

void LogEntry::serialize(serial::Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind()));
  std::visit([&enc](const auto& e) { e.serialize(enc); }, body_);
}

void LogEntry::deserialize(serial::Decoder& dec) {
  const auto tag = static_cast<EntryKind>(dec.read_u8());
  switch (tag) {
    case EntryKind::savepoint: {
      SavepointEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
    case EntryKind::begin_of_step: {
      BeginOfStepEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
    case EntryKind::operation: {
      OperationEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
    case EntryKind::end_of_step: {
      EndOfStepEntry e;
      e.deserialize(dec);
      body_ = std::move(e);
      break;
    }
    default:
      throw serial::DecodeError("bad log entry kind");
  }
}

void LogEntry::skip(serial::Decoder& dec) {
  // Mirrors deserialize() field for field; see Value::skip.
  const auto tag = static_cast<EntryKind>(dec.read_u8());
  switch (tag) {
    case EntryKind::savepoint: {
      (void)dec.read_u32();
      (void)dec.read_u8();
      (void)dec.read_u32();
      (void)dec.read_bool();
      (void)dec.read_bool();
      serial::Value::skip(dec);
      serial::ValuePatch::skip(dec);
      const auto n = dec.read_count();
      for (std::uint64_t i = 0; i < n; ++i) (void)dec.read_u32();
      break;
    }
    case EntryKind::begin_of_step:
      (void)dec.read_u32();
      (void)dec.read_string_view();
      break;
    case EntryKind::operation:
      (void)dec.read_u8();
      (void)dec.read_string_view();
      serial::Value::skip(dec);
      (void)dec.read_u32();
      (void)dec.read_string_view();
      break;
    case EntryKind::end_of_step: {
      (void)dec.read_u32();
      (void)dec.read_bool();
      (void)dec.read_bool();
      const auto n = dec.read_count();
      for (std::uint64_t i = 0; i < n; ++i) (void)dec.read_u32();
      break;
    }
    default:
      throw serial::DecodeError("bad log entry kind");
  }
}

std::size_t LogEntry::byte_size() const {
  return 1 + std::visit([](const auto& e) { return e.byte_size(); }, body_);
}

std::string LogEntry::to_string() const {
  std::ostringstream os;
  switch (kind()) {
    case EntryKind::savepoint: {
      const auto& sp = savepoint();
      os << "SP_" << sp.id;
      if (sp.lightweight) os << "(light)";
      if (sp.transition) os << "(delta)";
      break;
    }
    case EntryKind::begin_of_step:
      os << "BOS(N" << begin_of_step().node << ","
         << begin_of_step().step_name << ")";
      break;
    case EntryKind::operation:
      os << "OE[" << rollback::to_string(operation().kind) << ","
         << operation().comp_op << "]";
      break;
    case EntryKind::end_of_step: {
      const auto& e = end_of_step();
      os << "EOS(N" << e.node << (e.has_mixed ? ",mixed" : "")
         << (e.cannot_compensate ? ",poison" : "") << ")";
      break;
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// RollbackLog
// ---------------------------------------------------------------------------

namespace {

// Fixed-offset header fields of an encoded entry (after the tag byte).
// SP: u32 id | u8 origin | u32 depth | bool lightweight | bool transition
constexpr std::size_t kSpId = 1;
constexpr std::size_t kSpLightweight = 10;
constexpr std::size_t kSpTransition = 11;
// EOS: u32 node | bool has_mixed | bool cannot_compensate
constexpr std::size_t kEosCannotCompensate = 6;

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Writer for RollbackLog::append: the entry's tag byte, then its body.
template <typename Entry>
auto tagged(EntryKind kind, const Entry& e) {
  return [kind, &e](serial::Encoder& enc) {
    enc.write_u8(static_cast<std::uint8_t>(kind));
    e.serialize(enc);
  };
}

}  // namespace

template <typename Write>
void RollbackLog::append(std::size_t size, const Write& write) {
  serial::Encoder enc(std::move(buf_));
  enc.reserve(enc.size() + size);  // one geometric growth step at most
  write(enc);
  buf_ = std::move(enc).take();
  MAR_CHECK_MSG(buf_.size() <= UINT32_MAX, "rollback log exceeds 4 GiB");
  ends_.push_back(static_cast<std::uint32_t>(buf_.size()));
}

void RollbackLog::push(const SavepointEntry& e) {
  append(1 + e.byte_size(), tagged(EntryKind::savepoint, e));
}
void RollbackLog::push(const BeginOfStepEntry& e) {
  append(1 + e.byte_size(), tagged(EntryKind::begin_of_step, e));
}
void RollbackLog::push(const OperationEntry& e) {
  append(1 + e.byte_size(), tagged(EntryKind::operation, e));
}
void RollbackLog::push(const EndOfStepEntry& e) {
  append(1 + e.byte_size(), tagged(EntryKind::end_of_step, e));
}
void RollbackLog::push(const LogEntry& e) {
  append(e.byte_size(), [&e](serial::Encoder& enc) { e.serialize(enc); });
}

LogEntry RollbackLog::at(std::size_t i) const {
  MAR_CHECK_MSG(i < ends_.size(), "rollback log index out of range");
  return serial::from_bytes<LogEntry>(encoded_entry(i));
}

EntryKind RollbackLog::kind_at(std::size_t i) const {
  return static_cast<EntryKind>(buf_[begin_of(i)]);
}

SavepointId RollbackLog::savepoint_id_at(std::size_t i) const {
  return SavepointId(load_u32(buf_.data() + begin_of(i) + kSpId));
}

bool RollbackLog::savepoint_flag_at(std::size_t i, std::size_t offset) const {
  return buf_[begin_of(i) + offset] != 0;
}

std::optional<std::size_t> RollbackLog::index_of(SavepointId id) const {
  for (std::size_t i = ends_.size(); i-- > 0;) {
    if (kind_at(i) == EntryKind::savepoint && savepoint_id_at(i) == id) {
      return i;
    }
  }
  return std::nullopt;
}

std::vector<LogEntry> RollbackLog::entries() const {
  std::vector<LogEntry> out;
  out.reserve(ends_.size());
  for (std::size_t i = 0; i < ends_.size(); ++i) out.push_back(at(i));
  return out;
}

LogEntry RollbackLog::pop() {
  MAR_CHECK_MSG(!ends_.empty(), "pop on empty rollback log");
  LogEntry e = at(ends_.size() - 1);
  erase_at(ends_.size() - 1);
  return e;
}

LogEntry RollbackLog::back() const {
  MAR_CHECK_MSG(!ends_.empty(), "back on empty rollback log");
  return at(ends_.size() - 1);
}

void RollbackLog::splice(std::size_t i, std::span<const std::uint8_t> bytes) {
  const auto begin = begin_of(i);
  const auto old_len = ends_[i] - begin;
  buf_.erase(buf_.begin() + static_cast<std::ptrdiff_t>(begin),
             buf_.begin() + static_cast<std::ptrdiff_t>(ends_[i]));
  buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(begin),
              bytes.begin(), bytes.end());
  MAR_CHECK_MSG(buf_.size() <= UINT32_MAX, "rollback log exceeds 4 GiB");
  for (std::size_t j = i; j < ends_.size(); ++j) {
    ends_[j] = static_cast<std::uint32_t>(ends_[j] - old_len + bytes.size());
  }
  append_clean_ = false;
}

void RollbackLog::erase_at(std::size_t i) {
  splice(i, {});
  ends_.erase(ends_.begin() + static_cast<std::ptrdiff_t>(i));
}

void RollbackLog::append_encoded(serial::Decoder& dec, std::uint64_t count) {
  // One validating pass records the boundaries; one copy takes the bytes.
  const auto mark = dec.position();
  const auto base = buf_.size();
  const auto old_count = ends_.size();
  ends_.reserve(old_count + count);
  try {
    for (std::uint64_t i = 0; i < count; ++i) {
      LogEntry::skip(dec);
      const auto end = base + (dec.position() - mark);
      MAR_CHECK_MSG(end <= UINT32_MAX, "rollback log exceeds 4 GiB");
      ends_.push_back(static_cast<std::uint32_t>(end));
    }
  } catch (...) {
    ends_.resize(old_count);  // a rejected buffer leaves the log unchanged
    throw;
  }
  const auto bytes = dec.span_since(mark);
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

bool RollbackLog::is_prefix_of(const RollbackLog& other) const {
  if (other.ends_.size() < ends_.size()) return false;
  if (ends_.empty()) return true;
  return other.ends_[ends_.size() - 1] == buf_.size() &&
         std::memcmp(other.buf_.data(), buf_.data(), buf_.size()) == 0;
}

std::optional<SavepointId> RollbackLog::trailing_savepoint() const {
  if (ends_.empty() || kind_at(ends_.size() - 1) != EntryKind::savepoint) {
    return std::nullopt;
  }
  return savepoint_id_at(ends_.size() - 1);
}

std::optional<EndOfStepEntry> RollbackLog::last_end_of_step() const {
  for (std::size_t i = ends_.size(); i-- > 0;) {
    const auto kind = kind_at(i);
    if (kind == EntryKind::end_of_step) return at(i).end_of_step();
    // Only savepoint entries may trail the last end-of-step entry.
    if (kind != EntryKind::savepoint) return std::nullopt;
  }
  return std::nullopt;
}

bool RollbackLog::contains_savepoint(SavepointId id) const {
  return index_of(id).has_value();
}

void RollbackLog::for_each_node(
    const std::function<void(NodeId)>& visit) const {
  for (std::size_t i = 0; i < ends_.size(); ++i) {
    serial::Decoder dec(encoded_entry(i).subspan(1));  // past the tag
    switch (kind_at(i)) {
      case EntryKind::begin_of_step:
        visit(NodeId(dec.read_u32()));
        break;
      case EntryKind::end_of_step: {
        visit(NodeId(dec.read_u32()));
        (void)dec.read_bool();
        (void)dec.read_bool();
        const auto n = dec.read_count();
        for (std::uint64_t k = 0; k < n; ++k) visit(NodeId(dec.read_u32()));
        break;
      }
      case EntryKind::operation: {
        (void)dec.read_u8();
        (void)dec.read_string_view();
        serial::Value::skip(dec);
        const NodeId node(dec.read_u32());
        if (node.valid()) visit(node);
        break;
      }
      case EntryKind::savepoint:
        break;
    }
  }
}

bool RollbackLog::poisoned_after(SavepointId id) const {
  for (std::size_t i = ends_.size(); i-- > 0;) {
    const auto kind = kind_at(i);
    if (kind == EntryKind::savepoint && savepoint_id_at(i) == id) break;
    if (kind == EntryKind::end_of_step &&
        buf_[begin_of(i) + kEosCannotCompensate] != 0) {
      return true;
    }
  }
  return false;
}

std::vector<OperationEntry> RollbackLog::last_step_ops() const {
  std::size_t i = ends_.size();
  while (i > 0 && kind_at(i - 1) == EntryKind::savepoint) --i;
  if (i == 0 || kind_at(i - 1) != EntryKind::end_of_step) return {};
  // Entries [first, i - 1) sit between the step's BOS and its EOS.
  std::size_t first = --i;
  while (first > 0 && kind_at(first - 1) != EntryKind::begin_of_step) {
    if (kind_at(first - 1) != EntryKind::operation) return {};  // malformed
    --first;
  }
  std::vector<OperationEntry> ops;
  ops.reserve(i - first);
  for (std::size_t j = first; j < i; ++j) ops.push_back(at(j).operation());
  return ops;
}

std::optional<SavepointEntry> RollbackLog::find_savepoint(
    SavepointId id) const {
  const auto i = index_of(id);
  if (!i.has_value()) return std::nullopt;
  return at(*i).savepoint();
}

SavepointId RollbackLog::first_savepoint() const {
  for (std::size_t i = 0; i < ends_.size(); ++i) {
    if (kind_at(i) == EntryKind::savepoint) return savepoint_id_at(i);
  }
  return SavepointId::invalid();
}

std::optional<bool> RollbackLog::gc_savepoint(SavepointId id) {
  const auto found = index_of(id);
  if (!found.has_value()) return std::nullopt;
  const std::size_t i = *found;
  if (savepoint_flag_at(i, kSpLightweight)) {
    erase_at(i);
    return false;  // carried no data
  }
  SavepointEntry removed = at(i).savepoint();
  erase_at(i);  // interior removal (and possible chain rewrite)

  // Find the next data-carrying savepoint; it may depend on the removed
  // entry's data. (Lightweight savepoints after the removed one cannot
  // alias it: they would belong to a sub-itinerary nested inside the
  // completed one, which must have completed — and been GC'd — first.)
  for (std::size_t j = i; j < ends_.size(); ++j) {
    if (kind_at(j) != EntryKind::savepoint ||
        savepoint_flag_at(j, kSpLightweight)) {
      continue;
    }
    // self-contained; chain intact
    if (!savepoint_flag_at(j, kSpTransition)) return false;
    SavepointEntry sp = at(j).savepoint();
    if (removed.transition) {
      // delta chain: fold the removed delta into the successor.
      sp.delta = serial::compose(removed.delta, sp.delta);
    } else {
      // The removed full image was the successor's base: materialize.
      sp.image = serial::apply(sp.delta, std::move(removed.image));
      sp.transition = false;
      sp.delta = serial::ValuePatch::none();
    }
    splice(j, serial::to_bytes(LogEntry(std::move(sp))));
    return false;
  }
  // No later data-carrying savepoint: whatever is written next must be a
  // full image (only relevant under transition logging).
  return true;
}

Result<serial::Value> RollbackLog::strong_state_at(SavepointId id) const {
  const auto target = index_of(id);
  if (!target.has_value()) {
    return Status(Errc::not_found,
                  "savepoint not in log: " + std::to_string(id.value()));
  }
  // Walk back to the nearest full image (lightweight savepoints carry no
  // data; transition savepoints carry deltas).
  std::optional<std::size_t> base;
  for (std::size_t i = *target + 1; i-- > 0;) {
    if (kind_at(i) == EntryKind::savepoint &&
        !savepoint_flag_at(i, kSpLightweight) &&
        !savepoint_flag_at(i, kSpTransition)) {
      base = i;
      break;
    }
  }
  if (!base.has_value()) {
    return Status(Errc::protocol_error,
                  "no full strong-object image at or before savepoint " +
                      std::to_string(id.value()));
  }
  serial::Value state = std::move(at(*base).savepoint().image);
  // Apply forward deltas of data-carrying savepoints up to the target.
  for (std::size_t i = *base + 1; i <= *target; ++i) {
    if (kind_at(i) != EntryKind::savepoint ||
        savepoint_flag_at(i, kSpLightweight)) {
      continue;
    }
    MAR_CHECK_MSG(savepoint_flag_at(i, kSpTransition),
                  "unexpected full image between base and target");
    state = serial::apply(at(i).savepoint().delta, std::move(state));
  }
  return state;
}

void RollbackLog::serialize(serial::Encoder& enc) const {
  enc.write_varint(ends_.size());
  enc.write_raw(buf_);
}

void RollbackLog::deserialize(serial::Decoder& dec) {
  const auto count = dec.read_count();
  buf_.clear();
  ends_.clear();
  append_encoded(dec, count);
  mark_baseline();  // decoded state == the durable state
}

std::string RollbackLog::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < ends_.size(); ++i) {
    if (i > 0) os << " ";
    os << at(i).to_string();
  }
  return os.str();
}

}  // namespace mar::rollback
