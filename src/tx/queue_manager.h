// Transactional access to a node's agent input queue.
//
// Step and compensation transactions move the agent between stable input
// queues (paper Sec. 2): removal from the executing node's queue and
// insertion into the next node's queue are staged here and applied at
// commit. The agent therefore remains in the source queue across any crash
// until the transaction commits — the foundation of both the exactly-once
// protocol and the rollback algorithm's restartability.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "storage/stable_storage.h"
#include "tx/participant.h"
#include "util/ids.h"

namespace mar::tx {

class QueueManager final : public Participant {
 public:
  explicit QueueManager(storage::StableStorage& stable) : stable_(stable) {}

  /// Simulation clock hook (observability): committed enqueues are
  /// stamped with the current time as QueueRecord::enqueued_us — the
  /// queue-wait span of the hop that will consume the record begins the
  /// moment the record actually lands in the queue, which for a remote
  /// transfer is here at commit, not when the sender built it.
  void set_clock(std::function<std::uint64_t()> now_fn) {
    now_fn_ = std::move(now_fn);
  }

  /// The "record gone" listener: called with every record id a commit
  /// removes from the queue and every staged enqueue that will not reach
  /// it (aborted, or a duplicate of a record no longer queued), so
  /// volatile state kept for the record can go with it.
  void set_gone_listener(std::function<void(std::uint64_t)> fn) {
    gone_ = std::move(fn);
  }

  /// Stage "append this record to the local queue at commit", for a
  /// transaction this node coordinates.
  void stage_enqueue(TxId tx, storage::QueueRecord record);
  /// Stage an inbound transfer: the enqueue of another node's
  /// transaction. Its staging can be delivered again after it committed
  /// here, so its record id is deduplicated (DESIGN.md §4).
  void stage_transfer(TxId tx, storage::QueueRecord record);
  /// Stage "remove this record from the local queue at commit".
  void stage_remove(TxId tx, std::uint64_t record_id);

  // --- staged record-area ops (incremental agent commits) -----------------
  // An agent's durable image lives in the storage record area when it
  // commits incrementally; updating it must be atomic with the queue
  // movement of the same step transaction, so the ops are staged here and
  // group-committed with the enqueues/removes. Ops apply in staging order.
  /// Stage "replace the record with this base image" (establish/compact).
  void stage_record_reset(TxId tx, std::string key, serial::Bytes base);
  /// Stage "append this delta segment".
  void stage_record_append(TxId tx, std::string key, serial::Bytes delta);
  /// Stage "drop the record" (migration away / terminal state).
  void stage_record_erase(TxId tx, std::string key);

  // Participant interface.
  [[nodiscard]] std::string name() const override { return "queue"; }
  [[nodiscard]] bool has_tx(TxId tx) const override;
  bool prepare(TxId tx) override;
  void commit(TxId tx) override;
  void abort(TxId tx) override;
  void on_crash() override;

 private:
  struct RecordOp {
    enum class Kind : std::uint8_t { reset = 0, append = 1, erase = 2 };
    Kind kind = Kind::reset;
    std::string key;
    serial::Bytes bytes;  // empty for erase

    void serialize(serial::Encoder& enc) const;
    void deserialize(serial::Decoder& dec);
    [[nodiscard]] std::size_t byte_size() const;
  };

  struct Staged {
    std::vector<storage::QueueRecord> enqueues;
    std::vector<std::uint64_t> removes;
    std::vector<RecordOp> record_ops;
    bool prepared = false;
    /// Staged by another node's transaction (volatile: only such stagings
    /// are ever prepared, so a reloaded one is a transfer).
    bool transfer = false;

    void serialize(serial::Encoder& enc) const;
    void deserialize(serial::Decoder& dec);
    [[nodiscard]] std::size_t byte_size() const;
  };

  [[nodiscard]] std::string prep_key(TxId tx) const {
    return "prep.queue:" + std::to_string(tx.value());
  }

  storage::StableStorage& stable_;
  std::function<std::uint64_t()> now_fn_;
  std::function<void(std::uint64_t)> gone_;
  std::map<TxId, Staged> staged_;
};

}  // namespace mar::tx
