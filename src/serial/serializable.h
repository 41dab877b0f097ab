// Byte-capture helpers and the polymorphic type registry.
//
// Agent migration captures "the agent object with code and all private
// data" (paper Sec. 2). In this C++ reproduction, *code* mobility is
// modeled by a type registry shared by all nodes: the wire format carries
// a type name, and the receiving node re-instantiates the object through
// the registered factory — faithful to how Mole shipped classes both
// endpoints already knew.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeinfo>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "util/check.h"

namespace mar::serial {

/// Convenience: serialize to a fresh byte vector.
template <typename T>
[[nodiscard]] Bytes to_bytes(const T& obj) {
  // Generic helper: T's size interface (if any) is unknown here; sized
  // hot paths construct Encoder(reserve_hint) directly instead.
  Encoder enc;  // mar-lint: small-frame
  obj.serialize(enc);
  return std::move(enc).take();
}

/// Convenience: deserialize a default-constructible object from bytes.
template <typename T>
[[nodiscard]] T from_bytes(std::span<const std::uint8_t> bytes) {
  T obj;
  Decoder dec(bytes);
  obj.deserialize(dec);
  dec.expect_end();
  return obj;
}

/// Registry of polymorphic types for one base class. Nodes share a
/// registry instance via the simulation world: registering an agent type
/// makes it instantiable everywhere, which models code availability
/// across the agent system. Each type brings a factory (re-instantiation
/// from the wire) and a copier (an in-memory copy through the type's own
/// copy constructor).
template <typename Base>
class TypeRegistry {
 public:
  template <typename T>
  void register_type(std::string name) {
    static_assert(std::is_base_of_v<Base, T>, "T must derive from Base");
    static_assert(std::is_copy_constructible_v<T>,
                  "a registered type is copied by its copy constructor");
    MAR_CHECK_MSG(!types_.contains(name),
                  "duplicate type registration: " << name);
    types_.emplace(std::move(name),
                   Type{[]() -> std::unique_ptr<Base> {
                          return std::make_unique<T>();
                        },
                        [](const Base& obj) -> std::unique_ptr<Base> {
                          MAR_CHECK_MSG(typeid(obj) == typeid(T),
                                        "copy of a " << typeid(obj).name()
                                                     << " registered as a "
                                                     << typeid(T).name());
                          return std::make_unique<T>(
                              static_cast<const T&>(obj));
                        }});
  }

  [[nodiscard]] bool contains(std::string_view name) const {
    // Heterogeneous lookup (std::less<>): no temporary std::string.
    return types_.find(name) != types_.end();
  }

  /// A default-constructed instance of the type registered as `name`.
  [[nodiscard]] std::unique_ptr<Base> create(std::string_view name) const {
    return find(name).create();
  }

  /// A copy of `obj`, whose type is registered as `name`.
  [[nodiscard]] std::unique_ptr<Base> copy(std::string_view name,
                                           const Base& obj) const {
    return find(name).copy(obj);
  }

 private:
  struct Type {
    std::unique_ptr<Base> (*create)();
    std::unique_ptr<Base> (*copy)(const Base&);
  };

  [[nodiscard]] const Type& find(std::string_view name) const {
    auto it = types_.find(name);
    MAR_CHECK_MSG(it != types_.end(), "unknown type: " << name);
    return it->second;
  }

  std::map<std::string, Type, std::less<>> types_;
};

}  // namespace mar::serial
