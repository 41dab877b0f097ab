#include "agent/itinerary.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace mar::agent {

// ---------------------------------------------------------------------------
// Conditions (ref [14] preconditions)
// ---------------------------------------------------------------------------

bool Condition::eval(const serial::Value& weak) const {
  const bool present = weak.has(slot) && !weak.at(slot).is_null();
  switch (op) {
    case Op::exists: return present;
    case Op::not_exists: return !present;
    default: break;
  }
  if (!present) return false;
  const serial::Value& v = weak.at(slot);
  switch (op) {
    case Op::eq: return v == literal;
    case Op::ne: return !(v == literal);
    case Op::lt: return v.as_int() < literal.as_int();
    case Op::le: return v.as_int() <= literal.as_int();
    case Op::gt: return v.as_int() > literal.as_int();
    case Op::ge: return v.as_int() >= literal.as_int();
    default: return false;
  }
}

void Condition::serialize(serial::Encoder& enc) const {
  enc.write_string(slot);
  enc.write_u8(static_cast<std::uint8_t>(op));
  literal.serialize(enc);
}

void Condition::deserialize(serial::Decoder& dec) {
  slot = dec.read_string();
  op = static_cast<Op>(dec.read_u8());
  literal.deserialize(dec);
}

std::size_t Condition::encoded_size() const {
  return serial::blob_size(slot.size()) + 1 + literal.encoded_size();
}

std::string Condition::to_string() const {
  static constexpr const char* kOps[] = {"?",  "!?", "==", "!=",
                                         "<",  "<=", ">",  ">="};
  return slot + std::string(kOps[static_cast<int>(op)]) +
         (op == Op::exists || op == Op::not_exists ? "" : literal.to_string());
}

// ---------------------------------------------------------------------------
// Node lists
// ---------------------------------------------------------------------------

NodeId* NodeList::reset(std::size_t n) {
  MAR_CHECK(n <= UINT32_MAX);
  release();
  NodeId* nodes = nullptr;
  if (n > kInline) {
    nodes = heap_ = new NodeId[n];
  } else {
    inline_[0] = inline_[1] = NodeId{};
    nodes = inline_;
  }
  // Set only now, so a failed allocation leaves an empty list.
  size_ = static_cast<std::uint32_t>(n);
  return nodes;
}

void NodeList::assign(std::span<const NodeId> nodes) {
  std::copy(nodes.begin(), nodes.end(), reset(nodes.size()));
}

void NodeList::take(NodeList& other) noexcept {
  size_ = other.size_;
  if (on_heap()) {
    heap_ = other.heap_;
  } else {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
  other.size_ = 0;
}

void NodeList::release() noexcept {
  if (on_heap()) delete[] heap_;
  size_ = 0;
}

void NodeList::serialize(serial::Encoder& enc) const {
  enc.write_varint(size_);
  for (const auto n : *this) enc.write_u32(n.value());
}

void NodeList::deserialize(serial::Decoder& dec) {
  const auto n = dec.read_count();
  NodeId* nodes = reset(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = NodeId(dec.read_u32());
}

std::size_t NodeList::encoded_size() const {
  return serial::varint_size(size_) + 4 * size_;
}

// ---------------------------------------------------------------------------
// Entry serialization
// ---------------------------------------------------------------------------

void StepEntry::serialize(serial::Encoder& enc) const {
  enc.write_string(method);
  locations.serialize(enc);
  enc.write_bool(when != nullptr);
  if (when != nullptr) when->serialize(enc);
}

void StepEntry::deserialize(serial::Decoder& dec) {
  method = dec.read_string();
  locations.deserialize(dec);
  if (dec.read_bool()) {
    auto c = std::make_shared<Condition>();
    c->deserialize(dec);
    when = std::move(c);
  } else {
    when.reset();
  }
}

std::size_t StepEntry::encoded_size() const {
  return serial::blob_size(method.size()) + locations.encoded_size() + 1 +
         (when != nullptr ? when->encoded_size() : 0);
}

void Itinerary::Entry::serialize(serial::Encoder& enc) const {
  enc.write_u8(is_step() ? 0 : is_sub() ? 1 : 2);
  if (is_step()) {
    step().serialize(enc);
  } else if (is_sub()) {
    enc.write_bool(vital_);
    sub().serialize(enc);
  } else {
    enc.write_bool(vital_);
    enc.write_varint(alt().options.size());
    for (const auto& option : alt().options) option.serialize(enc);
  }
}

void Itinerary::Entry::deserialize(serial::Decoder& dec) {
  const auto tag = dec.read_u8();
  if (tag == 0) {
    StepEntry s;
    s.deserialize(dec);
    body_ = std::move(s);
    vital_ = true;
  } else if (tag == 1) {
    vital_ = dec.read_bool();
    Itinerary i;
    i.deserialize(dec);
    body_ = std::move(i);
  } else if (tag == 2) {
    vital_ = dec.read_bool();
    AltEntry a;
    a.options.resize(dec.read_count());
    for (auto& option : a.options) option.deserialize(dec);
    body_ = std::move(a);
  } else {
    throw serial::DecodeError("bad itinerary entry tag");
  }
}

// ---------------------------------------------------------------------------
// Builders and validation
// ---------------------------------------------------------------------------

Itinerary& Itinerary::step(std::string method, NodeId node) {
  entries_.emplace_back(StepEntry{std::move(method), NodeList(node), {}});
  return *this;
}

Itinerary& Itinerary::step(std::string method, std::vector<NodeId> locations) {
  MAR_CHECK_MSG(!locations.empty(), "step entry needs at least one node");
  entries_.emplace_back(
      StepEntry{std::move(method), NodeList(locations), {}});
  return *this;
}

Itinerary& Itinerary::step_if(std::string method, NodeId node,
                              Condition when) {
  entries_.emplace_back(
      StepEntry{std::move(method), NodeList(node),
                std::make_shared<const Condition>(std::move(when))});
  return *this;
}

// A nested itinerary is finished when it is appended: the builder never
// reaches it again, so its entry vector drops the growth slack.
Itinerary& Itinerary::sub(Itinerary nested, bool vital) {
  nested.entries_.shrink_to_fit();
  entries_.emplace_back(std::move(nested));
  entries_.back().set_vital(vital);
  return *this;
}

Itinerary& Itinerary::alt(std::vector<Itinerary> options) {
  MAR_CHECK_MSG(!options.empty(), "alternatives entry needs options");
  for (auto& option : options) option.entries_.shrink_to_fit();
  entries_.emplace_back(AltEntry{std::move(options)});
  return *this;
}

namespace {
Status validate_subtree(const Itinerary& it) {
  if (it.empty()) {
    return Status(Errc::invalid_itinerary, "empty (sub-)itinerary");
  }
  for (const auto& e : it.entries()) {
    if (e.is_sub()) {
      MAR_RETURN_IF_ERROR(validate_subtree(e.sub()));
    } else if (e.is_alt()) {
      if (e.alt().options.empty()) {
        return Status(Errc::invalid_itinerary,
                      "alternatives entry without options");
      }
      for (const auto& option : e.alt().options) {
        MAR_RETURN_IF_ERROR(validate_subtree(option));
      }
    }
  }
  return Status::ok();
}
}  // namespace

Status Itinerary::validate_main() const {
  if (entries_.empty()) {
    return Status(Errc::invalid_itinerary, "main itinerary is empty");
  }
  for (const auto& e : entries_) {
    if (e.is_step()) {
      // Sec. 4.4.2: "To provide a clear semantics, no step entries are
      // allowed in the main itinerary."
      return Status(Errc::invalid_itinerary,
                    "step entries are not allowed in the main itinerary");
    }
    if (e.is_alt()) {
      return Status(Errc::invalid_itinerary,
                    "alternatives are not allowed at the top level; wrap "
                    "them in a sub-itinerary");
    }
    MAR_RETURN_IF_ERROR(validate_subtree(e.sub()));
  }
  return Status::ok();
}

std::size_t Itinerary::Entry::encoded_size() const {
  std::size_t n = 1;  // kind tag
  if (is_step()) {
    n += step().encoded_size();
  } else if (is_sub()) {
    n += 1 + sub().encoded_size();
  } else {
    n += 1 + serial::varint_size(alt().options.size());
    for (const auto& option : alt().options) n += option.encoded_size();
  }
  return n;
}

void Itinerary::serialize(serial::Encoder& enc) const {
  enc.write_varint(entries_.size());
  for (const auto& e : entries_) e.serialize(enc);
}

std::size_t Itinerary::encoded_size() const {
  std::size_t n = serial::varint_size(entries_.size());
  for (const auto& e : entries_) n += e.encoded_size();
  return n;
}

void Itinerary::deserialize(serial::Decoder& dec) {
  entries_.resize(dec.read_count());
  for (auto& e : entries_) e.deserialize(dec);
}

// ---------------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------------

const Itinerary* Itinerary::itinerary_at_prefix(const Position& pos,
                                                std::size_t len) const {
  const Itinerary* it = this;
  std::size_t i = 0;
  while (i < len) {
    MAR_CHECK(pos[i] < it->entries_.size());
    const Entry& e = it->entries_[pos[i]];
    if (e.is_sub()) {
      it = &e.sub();
      ++i;
      continue;
    }
    MAR_CHECK_MSG(e.is_alt(), "position prefix crosses a step entry");
    MAR_CHECK_MSG(i + 1 < len, "position prefix splits an alternatives pair");
    MAR_CHECK(pos[i + 1] < e.alt().options.size());
    it = &e.alt().options[pos[i + 1]];
    i += 2;
  }
  return it;
}

std::size_t Itinerary::first_step_path(std::size_t index,
                                       Position* out) const {
  for (std::size_t i = index; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // One index deeper into a sub, two into alternatives (option 0).
    const Itinerary* down = e.is_step()  ? nullptr
                            : e.is_sub() ? &e.sub()
                                         : &e.alt().options[0];
    const auto below = down == nullptr ? 0 : down->first_step_path(0, nullptr);
    if (down != nullptr && below == 0) continue;
    if (out != nullptr) {
      out->push_back(static_cast<std::uint32_t>(i));
      if (e.is_alt()) out->push_back(0);
      if (down != nullptr) down->first_step_path(0, out);
    }
    return 1 + (e.is_alt() ? 1 : 0) + below;
  }
  return 0;
}

std::optional<Position> Itinerary::extend_to_first_step(
    std::span<const std::uint32_t> prefix, const Itinerary& in,
    std::size_t index) {
  const auto depth = in.first_step_path(index, nullptr);
  if (depth == 0) return std::nullopt;
  Position pos;
  pos.reserve(prefix.size() + depth);
  pos.assign(prefix.begin(), prefix.end());
  in.first_step_path(index, &pos);
  return pos;
}

void Itinerary::visit_locations(const std::function<void(NodeId)>& visit,
                                std::size_t from) const {
  for (std::size_t i = from; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.is_step()) {
      for (const auto n : e.step().locations) visit(n);
    } else if (e.is_sub()) {
      e.sub().visit_locations(visit);
    } else {
      for (const auto& option : e.alt().options) option.visit_locations(visit);
    }
  }
}

void Itinerary::for_each_location_from(
    std::span<const std::uint32_t> pos,
    const std::function<void(NodeId)>& visit) const {
  const Itinerary* it = this;
  std::size_t i = 0;
  while (it != nullptr) {
    if (i == pos.size()) {  // the path ends at a container: all of it
      it->visit_locations(visit);
      break;
    }
    MAR_CHECK(pos[i] < it->entries_.size());
    it->visit_locations(visit, pos[i] + 1);
    const Entry& e = it->entries_[pos[i]];
    if (e.is_step()) {
      for (const auto n : e.step().locations) visit(n);
      it = nullptr;
    } else if (e.is_sub()) {
      it = &e.sub();
      ++i;
    } else {
      // Options are alternatives, but which one runs is not settled until
      // the entry completes: count the others too.
      MAR_CHECK(i + 1 < pos.size() && pos[i + 1] < e.alt().options.size());
      for (std::size_t k = 0; k < e.alt().options.size(); ++k) {
        if (k != pos[i + 1]) e.alt().options[k].visit_locations(visit);
      }
      it = &e.alt().options[pos[i + 1]];
      i += 2;
    }
  }
}

std::optional<Position> Itinerary::first_step() const {
  return extend_to_first_step({}, *this, 0);
}

std::optional<Position> Itinerary::first_step_under(
    const Position& prefix) const {
  return extend_to_first_step(
      prefix, *itinerary_at_prefix(prefix, prefix.size()), 0);
}

std::optional<Position> Itinerary::next_step(const Position& pos) const {
  MAR_CHECK_MSG(!pos.empty(), "next_step on empty position");
  // The deepest entry index of `pos` with a step after it holds the next
  // step. Option indices are skipped: sibling options are alternatives,
  // not successors.
  const Itinerary* found_in = nullptr;
  std::size_t found_at = 0;
  const Itinerary* it = this;
  std::size_t i = 0;
  while (i < pos.size()) {
    MAR_CHECK(pos[i] < it->entries_.size());
    if (it->first_step_path(pos[i] + 1, nullptr) != 0) {
      found_in = it;
      found_at = i;
    }
    const Entry& e = it->entries_[pos[i]];
    if (e.is_step()) break;
    if (e.is_sub()) {
      it = &e.sub();
      ++i;
      continue;
    }
    MAR_CHECK(i + 1 < pos.size());
    it = &e.alt().options[pos[i + 1]];
    i += 2;
  }
  if (found_in == nullptr) return std::nullopt;
  return extend_to_first_step(std::span(pos).first(found_at), *found_in,
                              pos[found_at] + 1);
}

Itinerary::PrefixKind Itinerary::prefix_kind(const Position& prefix) const {
  if (prefix.empty()) return PrefixKind::invalid;
  const Itinerary* it = this;
  std::size_t i = 0;
  for (;;) {
    if (prefix[i] >= it->entries_.size()) return PrefixKind::invalid;
    const Entry& e = it->entries_[prefix[i]];
    const bool last = i + 1 == prefix.size();
    if (e.is_step()) return last ? PrefixKind::step : PrefixKind::invalid;
    if (e.is_sub()) {
      if (last) return PrefixKind::sub;
      it = &e.sub();
      ++i;
      continue;
    }
    // Alternatives entry: the next index selects the option.
    if (last) return PrefixKind::alt;
    if (prefix[i + 1] >= e.alt().options.size()) return PrefixKind::invalid;
    if (i + 2 == prefix.size()) return PrefixKind::alt_option;
    it = &e.alt().options[prefix[i + 1]];
    i += 2;
  }
}

const Itinerary::Entry& Itinerary::entry_at(const Position& pos) const {
  MAR_CHECK(!pos.empty());
  const auto kind = prefix_kind(pos);
  MAR_CHECK_MSG(kind == PrefixKind::sub || kind == PrefixKind::alt ||
                    kind == PrefixKind::step,
                "position does not address an itinerary entry");
  const Itinerary* it = itinerary_at_prefix(pos, pos.size() - 1);
  return it->entries_[pos.back()];
}

std::size_t Itinerary::alt_option_count(const Position& prefix) const {
  MAR_CHECK(prefix.size() >= 2);
  MAR_CHECK(prefix_kind(prefix) == PrefixKind::alt_option);
  const Itinerary* it = itinerary_at_prefix(prefix, prefix.size() - 2);
  return it->entries_[prefix[prefix.size() - 2]].alt().options.size();
}

const StepEntry& Itinerary::step_at(const Position& pos) const {
  MAR_CHECK(!pos.empty());
  const Itinerary* it = itinerary_at_prefix(pos, pos.size() - 1);
  MAR_CHECK(pos.back() < it->entries_.size());
  const Entry& e = it->entries_[pos.back()];
  MAR_CHECK_MSG(e.is_step(), "position does not address a step entry");
  return e.step();
}

bool Itinerary::valid_step(const Position& pos) const {
  return !pos.empty() && prefix_kind(pos) == PrefixKind::step;
}

std::vector<Position> Itinerary::active_subs(const Position& pos) {
  std::vector<Position> subs;
  for (std::size_t len = 1; len < pos.size(); ++len) {
    subs.emplace_back(pos.begin(), pos.begin() + static_cast<long>(len));
  }
  return subs;
}

namespace {
bool is_prefix_of(const Position& prefix, const Position& pos) {
  if (prefix.size() > pos.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), pos.begin());
}
}  // namespace

std::vector<Position> Itinerary::exited_subs(const Position& from,
                                             const Position& to) {
  std::vector<Position> out;
  const auto active = active_subs(from);
  // Innermost first: walk the active chain from deepest to shallowest.
  for (auto it = active.rbegin(); it != active.rend(); ++it) {
    if (to.empty() || !is_prefix_of(*it, to)) out.push_back(*it);
  }
  return out;
}

std::vector<Position> Itinerary::entered_subs(const Position& from,
                                              const Position& to) {
  std::vector<Position> out;
  for (const auto& sub : active_subs(to)) {  // outermost first
    if (from.empty() || !is_prefix_of(sub, from)) out.push_back(sub);
  }
  return out;
}

namespace {
void render(const Itinerary& it, std::ostringstream& os) {
  os << "[";
  bool first = true;
  for (const auto& e : it.entries()) {
    if (!first) os << " ";
    first = false;
    if (e.is_step()) {
      os << e.step().method << "@N" << e.step().primary();
      if (e.step().when != nullptr) {
        os << "{" << e.step().when->to_string() << "}";
      }
    } else if (e.is_sub()) {
      render(e.sub(), os);
    } else {
      os << "alt(";
      bool first_option = true;
      for (const auto& option : e.alt().options) {
        if (!first_option) os << " | ";
        first_option = false;
        render(option, os);
      }
      os << ")";
    }
  }
  os << "]";
}
}  // namespace

std::string Itinerary::to_string() const {
  std::ostringstream os;
  render(*this, os);
  return os.str();
}

}  // namespace mar::agent
