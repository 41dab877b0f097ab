// Transaction participant interface.
//
// A participant stages effects for a transaction (resource-state overlays,
// input-queue updates), applies them durably at commit, or discards them at
// abort. Only a remote coordinator's participant persists them first, at
// prepare: under presumed abort a coordinator's own participants need
// nothing durable before the decision. Participants must be idempotent under
// repeated commit/abort of the same transaction: 2PC retries decisions
// after crashes, and the network can deliver duplicates after a receiver
// lost its dedup state.
#pragma once

#include <string>

#include "util/ids.h"

namespace mar::tx {

class Participant {
 public:
  virtual ~Participant() = default;

  /// Stable identifier used to key prepared state in stable storage.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether this participant holds staged or prepared state for `tx`.
  [[nodiscard]] virtual bool has_tx(TxId tx) const = 0;

  /// Persist staged effects of a remote coordinator's transaction and
  /// vote. Returning false vetoes the commit. Must be idempotent.
  virtual bool prepare(TxId tx) = 0;

  /// Apply staged effects durably. Must be idempotent (a no-op when the
  /// transaction is unknown, e.g. after an earlier commit of a duplicate).
  virtual void commit(TxId tx) = 0;

  /// Discard staged effects. Must be idempotent.
  virtual void abort(TxId tx) = 0;

  /// Node crashed: drop volatile (non-prepared) transaction state and
  /// restore prepared state from stable storage.
  virtual void on_crash() = 0;
};

}  // namespace mar::tx
