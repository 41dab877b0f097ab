// Per-node scheduler: the execution slots, and one table of everything
// volatile the node knows about a queued record (attempts, aged-admission
// counts, an aborted attempt's hop span, a resident agent; DESIGN.md §3).
// An entry dies when its record leaves the queue or its staging will not
// reach it (the queue manager's "record gone" listener); a crash keeps
// only the attempt counts. The slot list holds the in-flight records, at
// most node_concurrency: the slot count and per-agent exclusion.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "agent/platform.h"
#include "storage/stable_storage.h"
#include "tx/queue_manager.h"
#include "util/rng.h"

namespace mar::agent {

class Scheduler {
 public:
  /// Listens to `qm` for records that are gone.
  Scheduler(const PlatformConfig& config, const storage::StableStorage& storage,
            tx::QueueManager& qm, Rng& rng);
  Scheduler(const Scheduler&) = delete;  // the listener holds `this`
  Scheduler& operator=(const Scheduler&) = delete;

  /// An aborted attempt's open hop span, resumed by the re-claim.
  struct HopStash {
    std::uint64_t span_id = 0;
    std::uint64_t begin_us = 0;
    std::uint64_t lock_wait_since = 0;  ///< abort time
  };

  /// What an abort does with the record's attempt count.
  enum class Attempt : std::uint8_t {
    uncounted,  ///< a failed terminal commit retries without counting one
    counted,    ///< the retry rotates through the alternative nodes
    bounded,    ///< counted; at max_compensation_attempts the retry is
                ///< given up and the slot kept for the caller (Sec. 3.2)
  };

  /// Put the next record into a free slot and return it (null: none).
  /// Eligible: no record of its agent in a slot. Aged admission (DESIGN.md
  /// §5): minimum (releases − bypasses), FIFO on ties.
  const storage::QueueRecord* claim();
  [[nodiscard]] bool holds(std::uint64_t record_id) const;
  [[nodiscard]] std::uint32_t attempts(std::uint64_t record_id) const;

  /// The commit exit: free the slot of the consumed record.
  void commit_exit(std::uint64_t record_id);
  /// The abort exit: count the attempt as told, free the slot, age the
  /// record, stash its hop span and return the backoff before the next
  /// pump; nullopt (slot kept) when a bounded attempt gives up.
  std::optional<sim::TimeUs> abort_exit(const storage::QueueRecord& rec,
                                        Attempt attempt, std::uint64_t now);

  void keep_resident(std::uint64_t record_id, std::shared_ptr<Agent> agent);
  /// Null when there is none; taken at most once.
  std::shared_ptr<Agent> take_resident(std::uint64_t record_id);
  /// span_id 0: no stash.
  [[nodiscard]] HopStash take_hop(std::uint64_t record_id);

  void crash();

  /// Records the table holds anything for (zero once the node is quiet).
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::size_t resident_agents() const;

 private:
  struct Entry {
    std::uint32_t attempts = 0;
    std::uint32_t releases = 0;
    std::uint32_t bypasses = 0;
    HopStash hop;
    std::shared_ptr<Agent> resident;
  };
  struct Slot {
    std::uint64_t record_id;
    AgentId agent;
  };

  [[nodiscard]] bool eligible(const storage::QueueRecord& rec) const;
  /// The entry, about to gain a release or a bypass.
  Entry& aging(std::uint64_t record_id);
  void free_slot(std::uint64_t record_id);
  void record_gone(std::uint64_t record_id);

  const PlatformConfig& config_;
  const storage::StableStorage& storage_;
  Rng& rng_;
  std::unordered_map<std::uint64_t, Entry> table_;
  std::vector<Slot> slots_;
  /// Entries with a release or a bypass: while zero, plain FIFO.
  std::size_t aged_ = 0;
  /// Entries with a stashed hop span: while zero, take_hop looks nothing up.
  std::size_t stashed_ = 0;
};

}  // namespace mar::agent
