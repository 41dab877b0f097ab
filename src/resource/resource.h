// Resource abstraction: the "local resources" agents visit nodes to use.
//
// A Resource encapsulates the domain logic (bank, shop, currency exchange,
// ...) as pure operations over a serializable state Value. Transactional
// concerns — locking, overlays, durability, 2PC participation — live in
// ResourceManager, so resource authors only write operation logic plus its
// domain rules (e.g. "no overdraft"), mirroring how the paper layers agent
// operations over a conventional transactional resource manager.
//
// The paper's ACID envelope (Sec. 2) requires isolation per *datum*, not
// per instance: two agents touching different accounts of one bank need
// not serialize. A resource therefore declares, per operation, the keys
// within its state the operation reads and writes (KeySet); the manager
// locks and overlays exactly those keys, so conflicts only arise on
// overlapping key-sets. The default declaration — the whole instance, one
// exclusive "*" key — is always correct and serializes every operation on
// the instance.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "serial/value.h"
#include "util/result.h"

namespace mar::resource {

using serial::Value;

/// One lockable unit within a resource instance's state Value, named by a
/// path string:
///   "*"          the whole instance (the conservative fallback),
///   "slot"       a whole top-level slot of the state map,
///   "slot/sub"   one entry of a map-typed top-level slot (`sub` may
///                contain further '/'; only the first one separates).
struct KeyRef {
  std::string unit;
  bool write = true;
};

/// The read/write key-set an operation declares. Default-constructed it
/// means "whole instance"; adding the first read()/write() switches it to
/// an explicit key list.
struct KeySet {
  bool whole_instance = true;
  std::vector<KeyRef> keys;

  static KeySet whole() { return {}; }

  KeySet& read(std::string unit) {
    whole_instance = false;
    keys.push_back(KeyRef{std::move(unit), false});
    return *this;
  }
  KeySet& write(std::string unit) {
    whole_instance = false;
    keys.push_back(KeyRef{std::move(unit), true});
    return *this;
  }
};

class Resource {
 public:
  virtual ~Resource() = default;

  /// Stable type identifier, e.g. "bank".
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// State a fresh instance starts from.
  [[nodiscard]] virtual Value initial_state() const {
    return Value::empty_map();
  }

  /// The keys `op` with `params` may read or write, consulted by the
  /// manager's lock table before the operation runs. Whole-instance (the
  /// default) is always correct; overriding narrows the conflict
  /// footprint. Declarations must be conservative: a *write* outside the
  /// declared set is a hard (audited) error, while
  /// an undeclared *read* sees absent state — so every key whose presence
  /// or value the operation branches on must be declared.
  [[nodiscard]] virtual KeySet key_set(std::string_view op,
                                       const Value& params) const {
    (void)op;
    (void)params;
    return KeySet::whole();
  }

  /// Execute `op` with `params` against `state` (the transaction's private
  /// overlay copy — a sparse state holding exactly the declared keys). Return a result Value, or an error Status — in
  /// which case the caller discards any partial mutation by aborting.
  virtual Result<Value> invoke(std::string_view op, const Value& params,
                               Value& state) = 0;
};

}  // namespace mar::resource
