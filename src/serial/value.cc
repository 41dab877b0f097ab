#include "serial/value.h"

#include <bit>
#include <compare>
#include <sstream>

#include "util/check.h"

namespace mar::serial {

bool Value::as_bool() const {
  MAR_CHECK_MSG(is_bool(), "Value is not a bool: " << to_string());
  return std::get<bool>(data_);
}

std::int64_t Value::as_int() const {
  MAR_CHECK_MSG(is_int(), "Value is not an integer: " << to_string());
  return std::get<std::int64_t>(data_);
}

double Value::as_real() const {
  MAR_CHECK_MSG(is_real(), "Value is not a real: " << to_string());
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  MAR_CHECK_MSG(is_string(), "Value is not a string: " << to_string());
  return std::get<std::string>(data_);
}

const Bytes& Value::as_bytes() const {
  MAR_CHECK_MSG(is_bytes(), "Value is not bytes");
  return std::get<Bytes>(data_);
}

const Value::List& Value::as_list() const {
  MAR_CHECK_MSG(is_list(), "Value is not a list: " << to_string());
  return std::get<List>(data_);
}

Value::List& Value::as_list() {
  MAR_CHECK_MSG(is_list(), "Value is not a list: " << to_string());
  return std::get<List>(data_);
}

const Value::Map& Value::as_map() const {
  MAR_CHECK_MSG(is_map(), "Value is not a map: " << to_string());
  return std::get<Map>(data_);
}

Value::Map& Value::as_map() {
  MAR_CHECK_MSG(is_map(), "Value is not a map: " << to_string());
  return std::get<Map>(data_);
}

bool Value::has(std::string_view key) const {
  return is_map() && as_map().contains(std::string(key));
}

const Value& Value::at(std::string_view key) const {
  const auto& m = as_map();
  auto it = m.find(std::string(key));
  MAR_CHECK_MSG(it != m.end(), "missing map key: " << key);
  return it->second;
}

Value Value::get_or(std::string_view key, Value fallback) const {
  if (!is_map()) return fallback;
  auto it = as_map().find(std::string(key));
  if (it == as_map().end()) return fallback;
  return it->second;
}

void Value::set(std::string_view key, Value v) {
  if (is_null()) data_ = Map{};
  as_map().insert_or_assign(std::string(key), std::move(v));
}

bool Value::erase(std::string_view key) {
  return as_map().erase(std::string(key)) > 0;
}

void Value::push_back(Value v) {
  if (is_null()) data_ = List{};
  as_list().push_back(std::move(v));
}

std::size_t Value::size() const {
  if (is_list()) return as_list().size();
  if (is_map()) return as_map().size();
  if (is_string()) return as_string().size();
  if (is_bytes()) return as_bytes().size();
  return 0;
}

bool operator==(const Value& a, const Value& b) {
  if (a.is_real() && b.is_real()) {
    return std::bit_cast<std::uint64_t>(std::get<double>(a.data_)) ==
           std::bit_cast<std::uint64_t>(std::get<double>(b.data_));
  }
  return a.data_ == b.data_;
}

bool operator<(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return a.kind() < b.kind();
  switch (a.kind()) {
    case Value::Kind::null:
      return false;
    case Value::Kind::boolean:
      return std::get<bool>(a.data_) < std::get<bool>(b.data_);
    case Value::Kind::integer:
      return std::get<std::int64_t>(a.data_) < std::get<std::int64_t>(b.data_);
    case Value::Kind::real:
      return std::strong_order(std::get<double>(a.data_),
                               std::get<double>(b.data_)) < 0;
    case Value::Kind::string:
      return std::get<std::string>(a.data_) < std::get<std::string>(b.data_);
    case Value::Kind::bytes:
      return std::get<Bytes>(a.data_) < std::get<Bytes>(b.data_);
    case Value::Kind::list: {
      const auto& la = std::get<Value::List>(a.data_);
      const auto& lb = std::get<Value::List>(b.data_);
      return std::lexicographical_compare(la.begin(), la.end(), lb.begin(),
                                          lb.end());
    }
    case Value::Kind::map: {
      const auto& ma = std::get<Value::Map>(a.data_);
      const auto& mb = std::get<Value::Map>(b.data_);
      return std::lexicographical_compare(
          ma.begin(), ma.end(), mb.begin(), mb.end(),
          [](const auto& x, const auto& y) {
            if (x.first != y.first) return x.first < y.first;
            return x.second < y.second;
          });
    }
  }
  return false;
}

void Value::serialize(Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind()));
  switch (kind()) {
    case Kind::null:
      break;
    case Kind::boolean:
      enc.write_bool(std::get<bool>(data_));
      break;
    case Kind::integer:
      enc.write_i64(std::get<std::int64_t>(data_));
      break;
    case Kind::real:
      enc.write_double(std::get<double>(data_));
      break;
    case Kind::string:
      enc.write_string(std::get<std::string>(data_));
      break;
    case Kind::bytes:
      enc.write_bytes(std::get<Bytes>(data_));
      break;
    case Kind::list: {
      const auto& l = std::get<List>(data_);
      enc.write_varint(l.size());
      for (const auto& v : l) v.serialize(enc);
      break;
    }
    case Kind::map: {
      const auto& m = std::get<Map>(data_);
      enc.write_varint(m.size());
      for (const auto& [k, v] : m) {
        enc.write_string(k);
        v.serialize(enc);
      }
      break;
    }
  }
}

void Value::deserialize(Decoder& dec) {
  const auto tag = dec.read_u8();
  switch (static_cast<Kind>(tag)) {
    case Kind::null:
      data_ = std::monostate{};
      break;
    case Kind::boolean:
      data_ = dec.read_bool();
      break;
    case Kind::integer:
      data_ = dec.read_i64();
      break;
    case Kind::real:
      data_ = dec.read_double();
      break;
    case Kind::string:
      data_ = dec.read_string();
      break;
    case Kind::bytes:
      data_ = dec.read_bytes();
      break;
    case Kind::list: {
      const auto n = dec.read_count();
      List l;
      l.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        Value v;
        v.deserialize(dec);
        l.push_back(std::move(v));
      }
      data_ = std::move(l);
      break;
    }
    case Kind::map: {
      const auto n = dec.read_varint();
      Map m;
      for (std::uint64_t i = 0; i < n; ++i) {
        auto k = dec.read_string();
        Value v;
        v.deserialize(dec);
        m.emplace(std::move(k), std::move(v));
      }
      data_ = std::move(m);
      break;
    }
    default:
      throw DecodeError("invalid Value kind tag " + std::to_string(tag));
  }
}

void Value::skip(Decoder& dec) {
  // Mirrors deserialize() read for read (read_count for lists, read_varint
  // for maps), so both reject exactly the same buffers.
  const auto tag = dec.read_u8();
  switch (static_cast<Kind>(tag)) {
    case Kind::null:
      break;
    case Kind::boolean:
      (void)dec.read_bool();
      break;
    case Kind::integer:
      (void)dec.read_i64();
      break;
    case Kind::real:
      (void)dec.read_u64();
      break;
    case Kind::string:
    case Kind::bytes:
      (void)dec.read_bytes_view();
      break;
    case Kind::list: {
      const auto n = dec.read_count();
      for (std::uint64_t i = 0; i < n; ++i) skip(dec);
      break;
    }
    case Kind::map: {
      const auto n = dec.read_varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        (void)dec.read_bytes_view();
        skip(dec);
      }
      break;
    }
    default:
      throw DecodeError("invalid Value kind tag " + std::to_string(tag));
  }
}

std::size_t Value::encoded_size() const {
  // Computed arithmetically (no encoding, no allocation): hot commit paths
  // use this to pre-size the encode buffer, so it must mirror serialize()
  // byte for byte.
  std::size_t n = 1;  // kind tag
  switch (kind()) {
    case Kind::null:
      break;
    case Kind::boolean:
      n += 1;
      break;
    case Kind::integer:
      n += i64_size(std::get<std::int64_t>(data_));
      break;
    case Kind::real:
      n += 8;
      break;
    case Kind::string:
      n += blob_size(std::get<std::string>(data_).size());
      break;
    case Kind::bytes:
      n += blob_size(std::get<Bytes>(data_).size());
      break;
    case Kind::list: {
      const auto& l = std::get<List>(data_);
      n += varint_size(l.size());
      for (const auto& v : l) n += v.encoded_size();
      break;
    }
    case Kind::map: {
      const auto& m = std::get<Map>(data_);
      n += varint_size(m.size());
      for (const auto& [k, v] : m) n += blob_size(k.size()) + v.encoded_size();
      break;
    }
  }
  return n;
}

std::string Value::to_string() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::null:
      os << "null";
      break;
    case Kind::boolean:
      os << (std::get<bool>(data_) ? "true" : "false");
      break;
    case Kind::integer:
      os << std::get<std::int64_t>(data_);
      break;
    case Kind::real:
      os << std::get<double>(data_);
      break;
    case Kind::string:
      os << '"' << std::get<std::string>(data_) << '"';
      break;
    case Kind::bytes:
      os << "bytes[" << std::get<Bytes>(data_).size() << "]";
      break;
    case Kind::list: {
      os << '[';
      bool first = true;
      for (const auto& v : std::get<List>(data_)) {
        if (!first) os << ',';
        first = false;
        os << v.to_string();
      }
      os << ']';
      break;
    }
    case Kind::map: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : std::get<Map>(data_)) {
        if (!first) os << ',';
        first = false;
        os << '"' << k << "\":" << v.to_string();
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// ValuePatch
// ---------------------------------------------------------------------------

ValuePatch ValuePatch::set(Value v) {
  ValuePatch p;
  p.kind_ = Kind::set;
  p.value_ = std::move(v);
  return p;
}

ValuePatch ValuePatch::remove() {
  ValuePatch p;
  p.kind_ = Kind::remove;
  return p;
}

ValuePatch ValuePatch::map_patch(std::map<std::string, ValuePatch> entries) {
  ValuePatch p;
  p.kind_ = Kind::map;
  p.entries_ = std::move(entries);
  return p;
}

void ValuePatch::serialize(Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind_));
  switch (kind_) {
    case Kind::none:
    case Kind::remove:
      break;
    case Kind::set:
      value_.serialize(enc);
      break;
    case Kind::map:
      enc.write_varint(entries_.size());
      for (const auto& [k, p] : entries_) {
        enc.write_string(k);
        p.serialize(enc);
      }
      break;
  }
}

void ValuePatch::deserialize(Decoder& dec) {
  const auto tag = dec.read_u8();
  entries_.clear();
  value_ = Value{};
  switch (static_cast<Kind>(tag)) {
    case Kind::none:
      kind_ = Kind::none;
      break;
    case Kind::remove:
      kind_ = Kind::remove;
      break;
    case Kind::set:
      kind_ = Kind::set;
      value_.deserialize(dec);
      break;
    case Kind::map: {
      kind_ = Kind::map;
      const auto n = dec.read_varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        auto k = dec.read_string();
        ValuePatch p;
        p.deserialize(dec);
        entries_.emplace(std::move(k), std::move(p));
      }
      break;
    }
    default:
      throw DecodeError("invalid ValuePatch kind tag " + std::to_string(tag));
  }
}

void ValuePatch::skip(Decoder& dec) {
  const auto tag = dec.read_u8();
  switch (static_cast<Kind>(tag)) {
    case Kind::none:
    case Kind::remove:
      break;
    case Kind::set:
      Value::skip(dec);
      break;
    case Kind::map: {
      const auto n = dec.read_varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        (void)dec.read_bytes_view();
        skip(dec);
      }
      break;
    }
    default:
      throw DecodeError("invalid ValuePatch kind tag " + std::to_string(tag));
  }
}

std::size_t ValuePatch::encoded_size() const {
  std::size_t n = 1;  // kind tag
  switch (kind_) {
    case Kind::none:
    case Kind::remove:
      break;
    case Kind::set:
      n += value_.encoded_size();
      break;
    case Kind::map:
      n += varint_size(entries_.size());
      for (const auto& [k, p] : entries_) {
        n += blob_size(k.size()) + p.encoded_size();
      }
      break;
  }
  return n;
}

std::string ValuePatch::to_string() const {
  switch (kind_) {
    case Kind::none:
      return "<none>";
    case Kind::remove:
      return "<remove>";
    case Kind::set:
      return "<set " + value_.to_string() + ">";
    case Kind::map: {
      std::string s = "<map ";
      for (const auto& [k, p] : entries_) {
        s += k + "=" + p.to_string() + " ";
      }
      s += ">";
      return s;
    }
  }
  return "?";
}

ValuePatch diff(const Value& from, const Value& to) {
  if (from == to) return ValuePatch::none();
  if (from.is_map() && to.is_map()) {
    std::map<std::string, ValuePatch> entries;
    for (const auto& [k, v] : from.as_map()) {
      auto it = to.as_map().find(k);
      if (it == to.as_map().end()) {
        entries.emplace(k, ValuePatch::remove());
      } else if (v != it->second) {
        entries.emplace(k, diff(v, it->second));
      }
    }
    for (const auto& [k, v] : to.as_map()) {
      if (!from.as_map().contains(k)) {
        entries.emplace(k, ValuePatch::set(v));
      }
    }
    return ValuePatch::map_patch(std::move(entries));
  }
  return ValuePatch::set(to);
}

Value apply(const ValuePatch& patch, Value base) {
  switch (patch.kind()) {
    case ValuePatch::Kind::none:
      return base;
    case ValuePatch::Kind::set:
      return patch.set_value();
    case ValuePatch::Kind::remove:
      return Value{};
    case ValuePatch::Kind::map: {
      if (!base.is_map()) base = Value::empty_map();
      auto& m = base.as_map();
      for (const auto& [k, p] : patch.entries()) {
        if (p.kind() == ValuePatch::Kind::remove) {
          m.erase(k);
          continue;
        }
        auto it = m.find(k);
        Value sub = (it != m.end()) ? it->second : Value{};
        m.insert_or_assign(k, apply(p, std::move(sub)));
      }
      return base;
    }
  }
  return base;
}

ValuePatch compose(const ValuePatch& first, const ValuePatch& second) {
  switch (second.kind()) {
    case ValuePatch::Kind::none:
      return first;
    case ValuePatch::Kind::set:
    case ValuePatch::Kind::remove:
      return second;  // second fully determines the outcome
    case ValuePatch::Kind::map:
      break;
  }
  // second is a map patch.
  switch (first.kind()) {
    case ValuePatch::Kind::none:
      return second;
    case ValuePatch::Kind::set:
      return ValuePatch::set(apply(second, first.set_value()));
    case ValuePatch::Kind::remove:
      // Applying a map patch after removal starts from an empty map.
      return ValuePatch::set(apply(second, Value::empty_map()));
    case ValuePatch::Kind::map: {
      auto entries = first.entries();
      for (const auto& [k, q] : second.entries()) {
        auto it = entries.find(k);
        if (it == entries.end()) {
          entries.emplace(k, q);
        } else {
          it->second = compose(it->second, q);
        }
      }
      return ValuePatch::map_patch(std::move(entries));
    }
  }
  return second;
}

}  // namespace mar::serial
