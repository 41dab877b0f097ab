// Value: a self-describing, serializable variant.
//
// The augmented state of the paper (Sec. 3.1) — resource state merged with
// the agent's private data space — is modeled uniformly as Values. Strong
// and weak data slots, resource state, compensating-operation parameters
// and savepoint images are all Values, which gives the library:
//   * uniform, byte-accurate serialization (migration-size experiments),
//   * physical before-images for strongly reversible objects (Sec. 4.1),
//   * structural diffs for *transition logging* of savepoints (Sec. 4.2).
//
// ValuePatch implements the transition-logging calculus: diff(a,b) yields a
// patch with apply(diff(a,b), a) == b, and compose() merges adjacent
// patches, which is exactly what garbage-collecting a savepoint entry under
// transition logging requires (Sec. 4.4.2 calls this "non-trivial").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "serial/decoder.h"
#include "serial/encoder.h"

namespace mar::serial {

class Value {
 public:
  enum class Kind : std::uint8_t {
    null = 0,
    boolean = 1,
    integer = 2,
    real = 3,
    string = 4,
    bytes = 5,
    list = 6,
    map = 7,
  };

  using List = std::vector<Value>;
  using Map = std::map<std::string, Value>;

  Value() = default;  // null
  Value(bool b) : data_(b) {}                     // NOLINT
  Value(std::int64_t i) : data_(i) {}             // NOLINT
  Value(int i) : data_(std::int64_t{i}) {}        // NOLINT
  Value(double d) : data_(d) {}                   // NOLINT
  Value(std::string s) : data_(std::move(s)) {}   // NOLINT
  Value(const char* s) : data_(std::string(s)) {} // NOLINT
  Value(Bytes b) : data_(std::move(b)) {}         // NOLINT
  Value(List l) : data_(std::move(l)) {}          // NOLINT
  Value(Map m) : data_(std::move(m)) {}           // NOLINT

  static Value empty_list() { return Value(List{}); }
  static Value empty_map() { return Value(Map{}); }

  [[nodiscard]] Kind kind() const {
    return static_cast<Kind>(data_.index());
  }
  [[nodiscard]] bool is_null() const { return kind() == Kind::null; }
  [[nodiscard]] bool is_bool() const { return kind() == Kind::boolean; }
  [[nodiscard]] bool is_int() const { return kind() == Kind::integer; }
  [[nodiscard]] bool is_real() const { return kind() == Kind::real; }
  [[nodiscard]] bool is_string() const { return kind() == Kind::string; }
  [[nodiscard]] bool is_bytes() const { return kind() == Kind::bytes; }
  [[nodiscard]] bool is_list() const { return kind() == Kind::list; }
  [[nodiscard]] bool is_map() const { return kind() == Kind::map; }

  // Checked accessors: MAR_CHECK-fail on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_real() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Bytes& as_bytes() const;
  [[nodiscard]] const List& as_list() const;
  [[nodiscard]] List& as_list();
  [[nodiscard]] const Map& as_map() const;
  [[nodiscard]] Map& as_map();

  // --- Map conveniences (checked: value must be a map) ------------------
  [[nodiscard]] bool has(std::string_view key) const;
  /// Checked lookup; MAR_CHECK-fails if missing.
  [[nodiscard]] const Value& at(std::string_view key) const;
  /// Lookup with fallback.
  [[nodiscard]] Value get_or(std::string_view key, Value fallback) const;
  /// Insert or overwrite; turns a null value into a map first.
  void set(std::string_view key, Value v);
  /// Remove a key if present. Returns true when removed.
  bool erase(std::string_view key);

  // --- List conveniences -------------------------------------------------
  void push_back(Value v);
  [[nodiscard]] std::size_t size() const;

  /// Bit-exact equality: reals compare by bit pattern, so 0.0 and -0.0
  /// differ and a NaN equals itself. State diffs rely on this: a change
  /// that alters the encoded bytes is never "unchanged".
  friend bool operator==(const Value& a, const Value& b);
  /// Total order: by kind first, then by content (lexicographic for
  /// lists/maps; reals by IEEE totalOrder, which agrees with ==). Makes
  /// Values usable as ordered-container keys.
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

  void serialize(Encoder& enc) const;
  void deserialize(Decoder& dec);
  /// Validate and step over one encoded Value without building it: reads
  /// exactly what deserialize() reads and throws DecodeError exactly when
  /// it would, but allocates nothing.
  static void skip(Decoder& dec);

  /// Number of bytes this value occupies on the wire.
  [[nodiscard]] std::size_t encoded_size() const;

  /// JSON-ish rendering for traces and diagnostics.
  [[nodiscard]] std::string to_string() const;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Bytes,
               List, Map>
      data_;
};

/// A structural patch between two Values. Patches over map values are
/// sparse (per key); any other change is recorded as a whole-value set.
class ValuePatch {
 public:
  enum class Kind : std::uint8_t {
    none = 0,    ///< no change
    set = 1,     ///< replace the whole value
    remove = 2,  ///< remove the entry (only meaningful inside a map patch)
    map = 3,     ///< per-key patches of a map value
  };

  ValuePatch() = default;  // none

  static ValuePatch none() { return ValuePatch{}; }
  static ValuePatch set(Value v);
  static ValuePatch remove();
  static ValuePatch map_patch(std::map<std::string, ValuePatch> entries);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_none() const { return kind_ == Kind::none; }
  [[nodiscard]] const Value& set_value() const { return value_; }
  [[nodiscard]] const std::map<std::string, ValuePatch>& entries() const {
    return entries_;
  }

  friend bool operator==(const ValuePatch& a, const ValuePatch& b) = default;

  void serialize(Encoder& enc) const;
  void deserialize(Decoder& dec);
  /// Non-allocating validating skip; the ValuePatch twin of Value::skip.
  static void skip(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size() const;
  [[nodiscard]] std::string to_string() const;

 private:
  Kind kind_ = Kind::none;
  Value value_;                                 // for set
  std::map<std::string, ValuePatch> entries_;   // for map
};

/// Patch such that apply(diff(from, to), from) == to. Map values diff
/// per key (recursively); everything else becomes a whole-value set.
[[nodiscard]] ValuePatch diff(const Value& from, const Value& to);

/// Apply a patch. Applying a map patch to a non-map starts from an empty
/// map (this keeps compose() total). Applying remove yields null.
[[nodiscard]] Value apply(const ValuePatch& patch, Value base);

/// Sequential composition: apply(compose(p, q), S) == apply(q, apply(p, S)).
/// This is what merging a garbage-collected savepoint's transition record
/// into its successor requires (Sec. 4.4.2).
[[nodiscard]] ValuePatch compose(const ValuePatch& first,
                                 const ValuePatch& second);

}  // namespace mar::serial
