// Delta-shipping migration subsystem: per-pair transfer channels with
// base+delta caching, convoy batching and cross-node commit coalescing.
//
// Migration images dominate the paper's cost model: every inter-node
// transfer ships the agent's full state — data space, itinerary and the
// attached rollback log — even though consecutive migrations of the same
// agent over the same (src, dst) pair differ only by the steps executed
// in between. The ShipmentManager owns all remote queue staging of a node
// and applies the PR 3 delta idea to the WIRE:
//
//   * per destination, a TransferChannel caches the last full image
//     shipped per agent (epoch- and hash-tagged, LRU-bounded under
//     PlatformConfig::ship_cache_bytes, and dropped once the agent's
//     remaining route cannot cross the channel again or the agent
//     terminates — DESIGN.md §6). The first migration of an agent
//     establishes the base; later migrations over the same pair ship only
//     encode_agent_delta_between(base, current) — the receiver holds the
//     matching base and reconstructs via apply_agent_delta;
//   * the fallback to a full image is automatic and self-healing: sender
//     cache miss, a rollback that broke the log-prefix property, a delta
//     exceeding ship_delta_max_ratio of the full image, or a receiver-side
//     reject (cache miss after a crash, channel-epoch mismatch, base-hash
//     divergence) answered with need_full;
//   * migrations decided toward the same destination within
//     ship_convoy_window ride ONE convoy message, so their participant-
//     side 2PC prepares/commits arrive together and coalesce into shared
//     stable-storage syncs (TxManager group commit, participant side).
//
// Durability is untouched: the receiver stages a SELF-CONTAINED full
// payload into its queue (reconstructed locally when a delta arrived), so
// prepared state, crash recovery and the exactly-once protocol see
// exactly the record they always saw — the cache is volatile pure
// optimization state, invalidated wholesale by a crash.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "agent/platform.h"
#include "net/network.h"
#include "storage/stable_storage.h"
#include "tx/queue_manager.h"
#include "tx/tx_manager.h"
#include "util/counters.h"
#include "util/ids.h"

namespace mar::ship {

/// Message type tags owned by the shipment layer.
namespace msg {
inline constexpr const char* convoy = "ship.convoy";
inline constexpr const char* convoy_ack = "ship.convoy_ack";
}  // namespace msg

/// How long a convoy waits for further riders after its first entry
/// (PlatformConfig::ship_convoy_window > 1).
inline constexpr sim::TimeUs kConvoyFlushUs = 200;

/// Content identity of a base image (64-bit, word-at-a-time). Both channel
/// ends hash the exact bytes a delta applies to; a mismatch (lost ack,
/// divergent caches) downgrades the shipment to a full image instead of
/// silently reconstructing the wrong state.
[[nodiscard]] std::uint64_t image_hash(std::span<const std::uint8_t> bytes);

/// Per-node shipping counters (A7 reports these). Relaxed atomics, like
/// StorageStats: safe to sample from a monitor thread while the world runs.
struct ShipStats {
  RelaxedCounter convoys_sent;       ///< convoy messages sent
  RelaxedCounter entries_sent;       ///< records shipped (incl. retries)
  RelaxedCounter full_images;        ///< entries shipped as full images
  RelaxedCounter delta_ships;        ///< entries shipped as deltas
  RelaxedCounter delta_fallbacks;    ///< sender fell back to full (no
                                     ///< usable base / oversized delta)
  RelaxedCounter need_full_retries;  ///< receiver rejected a delta
  RelaxedCounter wire_payload_bytes; ///< convoy payload bytes sent
};

class ShipmentManager {
 public:
  ShipmentManager(agent::Platform& platform, NodeId self, tx::TxManager& txm,
                  tx::QueueManager& qm, storage::StableStorage& storage);

  /// Stage `record` into `dest`'s queue within `tx` (the remote leg of a
  /// step/compensation transaction). Rides the destination's convoy,
  /// delta-shipped against the channel cache when profitable. `done(ok)`
  /// fires once: true after the receiver acknowledged the staging, false
  /// on reject or timeout (the caller aborts and retries — the record
  /// stays in the source queue, which is the restartability the
  /// exactly-once protocol relies on). `agent` is the committed agent
  /// `record.payload` encodes, and is never mutated again: the delta is
  /// diffed against it directly, and once acknowledged it becomes the
  /// channel's decoded base (unless this was the channel's first crossing,
  /// or its remaining route cannot cross the channel again).
  void stage_remote(TxId tx, NodeId dest, storage::QueueRecord record,
                    std::shared_ptr<const agent::Agent> agent,
                    std::function<void(bool)> done);

  /// Receiver-side handoff: called for every execute record staged from
  /// a delta frame, with a private copy of the reconstructed agent — the
  /// state decode_agent(record.payload) would produce. The node runtime
  /// keeps it for the record's first execution, saving that decode.
  using HandoffListener =
      std::function<void(const storage::QueueRecord& record,
                         std::unique_ptr<agent::Agent> agent)>;
  void set_handoff_listener(HandoffListener fn) { handoff_ = std::move(fn); }

  /// Receiver side: stage every convoy entry, answer one ack.
  void on_convoy(const net::Message& m);
  /// Sender side: resolve waiters; re-ship full images on need_full.
  void on_convoy_ack(const net::Message& m);
  /// Crash/recovery: caches, queues and waiters are volatile — dropped
  /// wholesale; the channel epoch bump makes stale remote bases
  /// unreferencable.
  void on_node_state(bool up);
  /// The agent terminated here: no hop of it crosses any channel again,
  /// so every base this node holds for it goes.
  void forget_agent(AgentId agent);

  [[nodiscard]] const ShipStats& stats() const { return stats_; }
  /// Image bytes held as channel bases, send and receive side together.
  [[nodiscard]] std::size_t cached_base_bytes() const {
    return send_cache_.bytes() + recv_cache_.bytes();
  }
  /// Channel bases held, send and receive side together.
  [[nodiscard]] std::size_t cached_bases() const {
    return send_cache_.size() + recv_cache_.size();
  }
  /// This node's receive-channel epoch (bumped per crash/recovery);
  /// deltas referencing an older epoch are answered with need_full.
  [[nodiscard]] std::uint64_t channel_epoch() const { return epoch_tag_; }

 private:
  /// One cached base image: the last full agent image that crossed the
  /// channel, plus the receiver epoch it is valid under and its content
  /// hash (both sides must agree on the exact bytes a delta applies to).
  /// `decoded` memoizes the image's decoded form so the per-hop diff
  /// (sender) / delta apply (receiver) skips re-decoding the base; it is
  /// an optimization slot only — `image` + `hash` stay authoritative.
  template <class Decoded>
  struct BaseEntry {
    serial::Bytes image;
    std::uint64_t epoch = 0;
    std::uint64_t hash = 0;
    std::uint64_t tick = 0;  ///< LRU recency
    Decoded decoded;
  };
  /// LRU pool of base images, bounded by ship_cache_bytes. One pool per
  /// direction side: send bases keyed by (dest, agent), receive bases
  /// keyed by (src, agent).
  template <class Decoded>
  class BaseCache {
   public:
    using Entry = BaseEntry<Decoded>;
    [[nodiscard]] Entry* find(NodeId peer, AgentId agent);
    /// `image` is taken by value: callers that are done with the buffer
    /// (the acked sender) move it in instead of copying a full agent
    /// image per hop.
    void put(NodeId peer, AgentId agent, serial::Bytes image,
             std::uint64_t epoch, std::size_t budget, Decoded decoded = {});
    void erase(NodeId peer, AgentId agent);
    /// Erase `agent`'s bases whose peer satisfies `dead`.
    template <class Pred>
    void erase_if(AgentId agent, Pred dead);
    void clear();
    [[nodiscard]] std::size_t bytes() const { return total_; }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }

   private:
    /// Agent first, so one agent's bases are one contiguous range.
    using Key = std::pair<std::uint64_t, std::uint32_t>;
    [[nodiscard]] static Key key_of(NodeId peer, AgentId agent) {
      return {agent.value(), peer.value()};
    }
    std::map<Key, Entry> entries_;
    std::size_t total_ = 0;
    std::uint64_t tick_ = 0;
  };

  /// A shipment in flight: queued for its convoy or awaiting the ack. The
  /// full record is retained so a need_full reject can re-ship the image
  /// under the same transaction without involving the caller. When the
  /// frame was diffed against a cached base, the acknowledged `agent`
  /// becomes the next base's decoded form; a first crossing keeps none.
  struct Pending {
    TxId tx;
    NodeId dest;
    storage::QueueRecord record;
    serial::Bytes frame;  ///< encoded convoy entry
    bool delta = false;
    bool diffed = false;  ///< a cached base existed (delta or fallback)
    std::uint64_t staged_at = 0;  ///< stage_remote time (convoy_wait span)
    std::shared_ptr<const agent::Agent> agent;  ///< what record.payload encodes
    std::function<void(bool)> done;
    sim::EventId timeout;  ///< stage timeout; the staged ack cancels it
  };

  /// Encode `p.record` as a convoy entry into `p.frame`: a delta against
  /// the cached base when one applies and stays under the size ratio, a
  /// full image otherwise.
  void encode_frame(Pending& p);
  /// Send one convoy message carrying `batch` and park its entries in
  /// awaiting_. Shared by the window/timer flush and the need_full
  /// full-image retry.
  void dispatch_convoy(NodeId dest, std::vector<Pending> batch);
  void flush_convoy(NodeId dest);
  void arm_flush(NodeId dest);
  void timeout_pending(TxId tx);
  /// An acknowledged shipment of `p.record`: keep its image as the
  /// channel base only while the agent's remaining route can cross the
  /// channel again, and drop this node's other bases of the agent that
  /// route can no longer use.
  void settle_bases(Pending& p, std::uint64_t peer_epoch);

  agent::Platform& p_;
  NodeId self_;
  tx::TxManager& txm_;
  tx::QueueManager& qm_;
  storage::StableStorage& storage_;

  /// Send bases memoize the committed agents the runtime handed in,
  /// shared and never mutated.
  BaseCache<std::shared_ptr<const agent::Agent>> send_cache_;
  /// Receive bases own their decoded agent, advanced in place per delta.
  BaseCache<std::unique_ptr<agent::Agent>> recv_cache_;
  HandoffListener handoff_;
  /// settle_bases' scratch set of the nodes an agent may still visit,
  /// indexed by node id; kept between acks so marking allocates nothing.
  std::vector<bool> reach_;
  /// Entries collecting towards the next convoy, per destination.
  std::map<NodeId, std::vector<Pending>> convoy_queue_;
  /// Armed dwell timer per destination. Every flush cancels it, so it
  /// never cuts the NEXT partial convoy's dwell time short.
  std::map<NodeId, sim::EventId> flush_timer_;
  /// Shipments whose convoy left, keyed by transaction.
  std::map<TxId, Pending> awaiting_;
  /// Receive-channel epoch: starts at 1, bumped on every crash/recovery
  /// transition. Carried in every ack so senders tag their bases with the
  /// epoch the receiver held them under.
  std::uint64_t epoch_tag_ = 1;
  ShipStats stats_;
};

}  // namespace mar::ship
