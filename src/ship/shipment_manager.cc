#include "ship/shipment_manager.h"

#include <algorithm>
#include <cstring>

#include "agent/agent.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "util/check.h"

namespace mar::ship {

namespace {

/// Convoy entry modes. Every entry doubles as the 2PC PREPARE for its
/// transaction, so a transfer costs one round trip — no tx.prepare
/// message crosses the wire for a convoyed hop.
constexpr std::uint8_t kFullFrame = 0;
constexpr std::uint8_t kDeltaFrame = 1;
/// Per-entry ack statuses.
constexpr std::uint8_t kStaged = 0;
constexpr std::uint8_t kNeedFull = 1;

/// Mark in `reach` (indexed by node id) every node the agent captured in
/// `image`, shipped as a `kind` record, may still occupy. An executing
/// agent moves on through the rest of its itinerary only. A rolling-back
/// one first revisits the nodes its log names, then resumes from a
/// savepoint inside its current top-level sub; an agent retaining its
/// full log may roll back to its launch.
void mark_reachable(const agent::Agent& image, storage::RecordKind kind,
                    std::vector<bool>& reach) {
  const std::function<void(NodeId)> mark = [&reach](NodeId n) {
    if (n.value() >= reach.size()) reach.resize(n.value() + 1, false);
    reach[n.value()] = true;
  };
  const auto& position = image.position();
  if (kind != storage::RecordKind::compensate && !image.retain_full_log()) {
    image.itinerary().for_each_location_from(position, mark);
    return;
  }
  // The current top-level sub (a one-index prefix), or the whole route.
  const auto from = std::span(position).first(
      !image.retain_full_log() && !position.empty() ? 1 : 0);
  image.itinerary().for_each_location_from(from, mark);
  image.log().for_each_node(mark);
}

}  // namespace

std::uint64_t image_hash(std::span<const std::uint8_t> bytes) {
  // Four independent lanes, one 8-byte word each per 32-byte block, so
  // four multiply chains run side by side. A round is a bijection of its
  // lane for a fixed word and of the word for a fixed lane, and so is
  // every step of the final fold: a change confined to one word always
  // changes the hash. Words are loaded in host order — both channel ends
  // run the same binary, so equal bytes hash equal, which is the whole
  // contract.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const auto mix = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 29);
  };
  const auto load = [](const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  };
  const std::uint64_t seed = bytes.size() * kMul;
  std::uint64_t lane[4] = {0x243F6A8885A308D3ull ^ seed,
                           0x13198A2E03707344ull ^ seed,
                           0xA4093822299F31D0ull ^ seed,
                           0x082EFA98EC4E6C89ull ^ seed};
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 32; p += 32, n -= 32) {
    lane[0] = mix(lane[0], load(p));
    lane[1] = mix(lane[1], load(p + 8));
    lane[2] = mix(lane[2], load(p + 16));
    lane[3] = mix(lane[3], load(p + 24));
  }
  // The tail: up to three whole words, then the partial one tagged with
  // its length, each into the next lane.
  std::size_t k = 0;
  for (; n >= 8; p += 8, n -= 8, ++k) lane[k] = mix(lane[k], load(p));
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    lane[k] = mix(lane[k], w ^ (static_cast<std::uint64_t>(n) << 56));
  }
  std::uint64_t h = mix(mix(mix(lane[0], lane[1]), lane[2]), lane[3]);
  // Final avalanche (MurmurHash3 fmix64).
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  return h ^ (h >> 33);
}

// ---------------------------------------------------------------------------
// BaseCache
// ---------------------------------------------------------------------------

template <class Decoded>
auto ShipmentManager::BaseCache<Decoded>::find(NodeId peer, AgentId agent)
    -> Entry* {
  auto it = entries_.find(key_of(peer, agent));
  if (it == entries_.end()) return nullptr;
  it->second.tick = ++tick_;
  return &it->second;
}

template <class Decoded>
void ShipmentManager::BaseCache<Decoded>::put(NodeId peer, AgentId agent,
                                              serial::Bytes image,
                                              std::uint64_t epoch,
                                              std::size_t budget,
                                              Decoded decoded) {
  erase(peer, agent);
  if (image.size() > budget) return;  // would evict everything else anyway
  Entry e;
  e.epoch = epoch;
  e.hash = image_hash(image);
  e.tick = ++tick_;
  e.decoded = std::move(decoded);
  total_ += image.size();
  e.image = std::move(image);
  entries_.emplace(key_of(peer, agent), std::move(e));
  while (total_ > budget) {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.tick < lru->second.tick) lru = it;
    }
    total_ -= lru->second.image.size();
    entries_.erase(lru);
  }
}

template <class Decoded>
void ShipmentManager::BaseCache<Decoded>::erase(NodeId peer, AgentId agent) {
  auto it = entries_.find(key_of(peer, agent));
  if (it == entries_.end()) return;
  total_ -= it->second.image.size();
  entries_.erase(it);
}

template <class Decoded>
template <class Pred>
void ShipmentManager::BaseCache<Decoded>::erase_if(AgentId agent, Pred dead) {
  auto it = entries_.lower_bound(Key{agent.value(), 0});
  while (it != entries_.end() && it->first.first == agent.value()) {
    if (dead(NodeId(it->first.second))) {
      total_ -= it->second.image.size();
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

template <class Decoded>
void ShipmentManager::BaseCache<Decoded>::clear() {
  entries_.clear();
  total_ = 0;
}

// ---------------------------------------------------------------------------
// ShipmentManager
// ---------------------------------------------------------------------------

ShipmentManager::ShipmentManager(agent::Platform& platform, NodeId self,
                                 tx::TxManager& txm, tx::QueueManager& qm,
                                 storage::StableStorage& storage)
    : p_(platform), self_(self), txm_(txm), qm_(qm), storage_(storage) {
  p_.net().on(self_, net::MsgType::ship_convoy,
              [this](const net::Message& m) { on_convoy(m); });
  p_.net().on(self_, net::MsgType::ship_convoy_ack,
              [this](const net::Message& m) { on_convoy_ack(m); });
}

void ShipmentManager::encode_frame(Pending& p) {
  const auto& cfg = p_.config();
  // Frame size depends on the delta-vs-full branch below; pre-sizing
  // would have to run the diff twice.
  serial::Encoder enc;  // mar-lint: small-frame
  enc.write_u64(p.tx.value());
  p.delta = false;
  p.diffed = false;
  if (!p.record.payload.empty()) {
    if (auto* base = send_cache_.find(p.dest, p.record.agent)) {
      p.diffed = true;
      std::optional<serial::Bytes> delta;
      try {
        if (base->decoded == nullptr) {
          base->decoded = agent::decode_agent(p_.agent_types(), base->image);
        }
        // The committed agent is diffed as is: no payload decode.
        delta = encode_agent_delta_between(*base->decoded, *p.agent);
      } catch (const serial::DecodeError&) {
        delta.reset();  // corrupt cache entry: fall back and re-establish
      }
      if (delta.has_value() &&
          static_cast<double>(delta->size()) <=
              cfg.ship_delta_max_ratio *
                  static_cast<double>(p.record.payload.size())) {
        p.delta = true;
        enc.write_u8(kDeltaFrame);
        // The delta frame carries the record verbatim minus its payload
        // (the delta follows instead). Swapping the payload aside keeps
        // the copy cheap AND future record fields on the delta path.
        serial::Bytes payload;
        payload.swap(p.record.payload);
        storage::QueueRecord header = p.record;
        payload.swap(p.record.payload);
        header.serialize(enc);
        enc.write_u64(base->epoch);
        enc.write_u64(base->hash);
        enc.write_bytes(*delta);
        ++stats_.delta_ships;
      } else {
        ++stats_.delta_fallbacks;
      }
    }
  }
  if (!p.delta) {
    enc.write_u8(kFullFrame);
    p.record.serialize(enc);
    ++stats_.full_images;
  }
  p.frame = std::move(enc).take();
}

void ShipmentManager::stage_remote(TxId tx, NodeId dest,
                                   storage::QueueRecord record,
                                   std::shared_ptr<const agent::Agent> agent,
                                   std::function<void(bool)> done) {
  const auto& cfg = p_.config();
  MAR_CHECK_MSG(record.payload.empty() || agent != nullptr,
                "a payload is staged without the agent it encodes");
  MAR_DCHECK_MSG(agent == nullptr ||
                     agent::encode_agent(*agent) == record.payload,
                 "staged agent does not encode to the record payload");
  Pending p;
  p.tx = tx;
  p.dest = dest;
  p.record = std::move(record);
  p.agent = std::move(agent);
  p.staged_at = p_.sim().now();
  p.done = std::move(done);
  encode_frame(p);
  if (cfg.stage_timeout_us > 0) {
    // Covers the convoy dwell time, the transfer, and a need_full retry
    // round trip — which re-ships the FULL image, so the transfer term is
    // sized from the payload even when the first frame is a small delta.
    const auto wire = std::max(p.frame.size(), p.record.payload.size());
    const auto timeout = cfg.stage_timeout_us + kConvoyFlushUs +
                         4 * p_.net().transfer_time(self_, dest, wire);
    p.timeout = p_.sim().schedule_after(
        timeout, [this, tx] { timeout_pending(tx); });
  }
  auto& queue = convoy_queue_[dest];
  queue.push_back(std::move(p));
  if (queue.size() >= std::max<std::uint32_t>(1, cfg.ship_convoy_window)) {
    flush_convoy(dest);
  } else {
    arm_flush(dest);
  }
}

void ShipmentManager::arm_flush(NodeId dest) {
  auto& timer = flush_timer_[dest];
  if (p_.sim().scheduled(timer)) return;
  timer = p_.sim().schedule_after(kConvoyFlushUs,
                                  [this, dest] { flush_convoy(dest); });
}

void ShipmentManager::flush_convoy(NodeId dest) {
  if (auto t = flush_timer_.find(dest); t != flush_timer_.end()) {
    p_.sim().cancel(t->second);
    flush_timer_.erase(t);
  }
  auto it = convoy_queue_.find(dest);
  if (it == convoy_queue_.end() || it->second.empty()) return;
  auto batch = std::move(it->second);
  convoy_queue_.erase(it);
  dispatch_convoy(dest, std::move(batch));
}

void ShipmentManager::dispatch_convoy(NodeId dest,
                                      std::vector<Pending> batch) {
  const auto now = p_.sim().now();
  std::size_t wire = 8 + serial::varint_size(batch.size());
  for (const auto& p : batch) wire += serial::blob_size(p.frame.size());
  serial::Encoder enc(wire);
  // Departure stamp: the receiver turns it into the wire span of each
  // entry (global simulation clock, so sender/receiver times compare).
  enc.write_u64(now);
  enc.write_varint(batch.size());
  for (const auto& p : batch) enc.write_bytes(p.frame);
  if (p_.spans().enabled()) {
    for (const auto& p : batch) {
      Span s;
      s.trace_id = p.record.trace_id;
      s.span_id = p_.spans().next_id();
      s.parent = p.record.trace_parent;
      s.kind = SpanKind::convoy_wait;
      s.node = self_.value();
      s.agent = p.record.agent.value();
      s.begin_us = p.staged_at;
      s.end_us = now;
      p_.spans().record(s);
    }
  }
  ++stats_.convoys_sent;
  stats_.entries_sent += batch.size();
  stats_.wire_payload_bytes += enc.size();
  p_.spans().event(EventKind::convoy, self_.value(), 0, now, dest.value(),
                   enc.size());
  for (auto& p : batch) {
    const auto tx = p.tx;
    awaiting_.insert_or_assign(tx, std::move(p));
  }
  p_.net().send(net::Message{self_, dest, net::MsgType::ship_convoy,
                             std::move(enc).take()});
}

void ShipmentManager::timeout_pending(TxId tx) {
  for (auto& [dest, queue] : convoy_queue_) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (it->tx != tx) continue;
      auto done = std::move(it->done);
      queue.erase(it);
      done(false);
      return;
    }
  }
  // The staged ack and the crash cancel this timer, so the shipment is
  // still queued or awaited.
  auto it = awaiting_.find(tx);
  MAR_CHECK_MSG(it != awaiting_.end(), "stage timeout of unknown tx " << tx);
  auto done = std::move(it->second.done);
  awaiting_.erase(it);
  done(false);
}

void ShipmentManager::on_convoy(const net::Message& m) {
  serial::Decoder dec(m.payload);
  const auto sent_at = dec.read_u64();
  const auto count = dec.read_count();
  serial::Encoder ack(8 + serial::varint_size(count) + count * (8 + 1));
  ack.write_u64(epoch_tag_);
  ack.write_varint(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    serial::Decoder entry(dec.read_bytes_view());
    const TxId tx(entry.read_u64());
    const auto mode = entry.read_u8();
    storage::QueueRecord rec;
    rec.deserialize(entry);
    // The record is consumed by the staging below; keep what the spans
    // need.
    const auto trace_id = rec.trace_id;
    const auto trace_parent = rec.trace_parent;
    const auto agent_value = rec.agent.value();
    std::uint8_t status = kStaged;
    std::size_t wire_bytes = rec.payload.size();
    if (mode == kDeltaFrame) {
      const auto base_epoch = entry.read_u64();
      const auto base_hash = entry.read_u64();
      const auto delta = entry.read_bytes_view();
      entry.expect_end();
      wire_bytes = delta.size();
      auto* base = recv_cache_.find(m.from, rec.agent);
      std::unique_ptr<agent::Agent> rebuilt;
      if (base == nullptr || base_epoch != epoch_tag_ ||
          base->hash != base_hash) {
        // No usable base (crash wiped the cache, or the channels
        // diverged): ask for the full image instead of reconstructing
        // from the wrong state.
        status = kNeedFull;
      } else {
        try {
          // The memoized decoded base is advanced in place — after the
          // apply it IS the reconstructed state, re-cached below as the
          // channel's next base.
          rebuilt = base->decoded != nullptr
                        ? std::move(base->decoded)
                        : agent::decode_agent(p_.agent_types(), base->image);
          agent::apply_agent_delta(*rebuilt, delta);
          rec.payload = agent::encode_agent(*rebuilt);
        } catch (const serial::DecodeError&) {
          // Divergence the hash did not catch; the half-applied decoded
          // state must not survive as a base.
          recv_cache_.erase(m.from, rec.agent);
          status = kNeedFull;
        }
      }
      if (status == kStaged) {
        storage_.note_shipment(wire_bytes, rec.payload.size());
        // The first execution of an execute record starts from a copy of
        // the reconstructed agent instead of decoding rec.payload again
        // (compensation records always re-read their payload).
        if (handoff_ && rec.kind == storage::RecordKind::execute) {
          handoff_(rec, agent::clone_agent(p_.agent_types(), *rebuilt));
        }
        recv_cache_.put(m.from, rec.agent, rec.payload, epoch_tag_,
                        p_.config().ship_cache_bytes, std::move(rebuilt));
        txm_.note_remote_staged(tx);
        qm_.stage_transfer(tx, std::move(rec));
      }
    } else {
      MAR_CHECK_MSG(mode == kFullFrame, "unknown convoy entry mode");
      entry.expect_end();
      storage_.note_shipment(wire_bytes, rec.payload.size());
      if (!rec.payload.empty()) {
        recv_cache_.put(m.from, rec.agent, rec.payload, epoch_tag_,
                        p_.config().ship_cache_bytes);
      }
      txm_.note_remote_staged(tx);
      qm_.stage_transfer(tx, std::move(rec));
    }
    if (status == kStaged && p_.spans().enabled()) {
      const auto now = p_.sim().now();
      Span w;
      w.trace_id = trace_id;
      w.span_id = p_.spans().next_id();
      w.parent = trace_parent;
      w.kind = SpanKind::wire;
      w.node = self_.value();
      w.agent = agent_value;
      w.begin_us = sent_at;
      w.end_us = now;
      w.value = wire_bytes;
      p_.spans().record(w);
      // Staging/reconstruction is instantaneous in simulation time; the
      // apply span is a zero-width causal marker of where the record
      // landed and in which form.
      Span a = w;
      a.span_id = p_.spans().next_id();
      a.kind = SpanKind::apply;
      a.begin_us = now;
      a.code = mode == kDeltaFrame ? 1 : 0;
      p_.spans().record(a);
    }
    // The staged entry doubles as the PREPARE (one round trip): queue the
    // prepare-and-vote now that the staged state exists. A kNeedFull
    // entry staged nothing, so no vote leaves — the full-image retry
    // carries the prepare again.
    if (status == kStaged) txm_.on_piggybacked_prepare(tx, m.from);
    ack.write_u64(tx.value());
    ack.write_u8(status);
  }
  p_.net().send(net::Message{self_, m.from, net::MsgType::ship_convoy_ack,
                             std::move(ack).take()});
}

void ShipmentManager::on_convoy_ack(const net::Message& m) {
  serial::Decoder dec(m.payload);
  const auto peer_epoch = dec.read_u64();
  const auto count = dec.read_count();
  for (std::uint64_t i = 0; i < count; ++i) {
    const TxId tx(dec.read_u64());
    const auto status = dec.read_u8();
    auto it = awaiting_.find(tx);
    if (it == awaiting_.end()) continue;  // timed out / duplicate ack
    if (status == kStaged) {
      Pending p = std::move(it->second);
      awaiting_.erase(it);
      p_.sim().cancel(p.timeout);
      if (!p.record.payload.empty()) settle_bases(p, peer_epoch);
      p.done(true);
      continue;
    }
    // need_full: the receiver lost (or never had) the base. Drop ours and
    // re-ship the full image at once, under the same transaction — the
    // caller never notices beyond the extra round trip.
    ++stats_.need_full_retries;
    Pending p = std::move(it->second);
    awaiting_.erase(it);
    const auto dest = p.dest;
    send_cache_.erase(dest, p.record.agent);
    encode_frame(p);  // no cached base left: always a full frame now
    std::vector<Pending> retry;
    retry.push_back(std::move(p));
    dispatch_convoy(dest, std::move(retry));
  }
}

void ShipmentManager::settle_bases(Pending& p, std::uint64_t peer_epoch) {
  std::fill(reach_.begin(), reach_.end(), false);
  mark_reachable(*p.agent, p.record.kind, reach_);
  const auto may_visit = [this](NodeId n) {
    return n.value() < reach_.size() && reach_[n.value()];
  };
  // Every base held here is a channel between this node and a peer; the
  // agent can cross it again only if its route still touches both ends.
  const auto dead = [&](NodeId peer) {
    return !may_visit(self_) || !may_visit(peer);
  };
  if (!dead(p.dest)) {
    // The shipped image is now the channel base on both ends, valid under
    // the receiver epoch the ack reported. A diffed shipment's agent is
    // memoized with it as the decoded base; after a first crossing the
    // next delta decodes the base once.
    send_cache_.put(p.dest, p.record.agent, std::move(p.record.payload),
                    peer_epoch, p_.config().ship_cache_bytes,
                    p.diffed ? std::move(p.agent) : nullptr);
  }
  send_cache_.erase_if(p.record.agent, dead);
  recv_cache_.erase_if(p.record.agent, dead);
}

void ShipmentManager::forget_agent(AgentId agent) {
  const auto all = [](NodeId) { return true; };
  send_cache_.erase_if(agent, all);
  recv_cache_.erase_if(agent, all);
}

void ShipmentManager::on_node_state(bool up) {
  (void)up;
  // Every transition invalidates the channel world: timers are cancelled,
  // in-flight shipments are dropped (their coordinator-side transactions
  // resolve through 2PC recovery), and both cache sides are cleared — the
  // epoch bump makes any base a remote still references unmatchable, so
  // the next delta against it is answered need_full.
  auto& sim = p_.sim();
  for (const auto& [dest, queue] : convoy_queue_) {
    for (const auto& p : queue) sim.cancel(p.timeout);
  }
  for (const auto& [tx, p] : awaiting_) sim.cancel(p.timeout);
  for (const auto& [dest, timer] : flush_timer_) sim.cancel(timer);
  ++epoch_tag_;
  convoy_queue_.clear();
  flush_timer_.clear();
  awaiting_.clear();
  send_cache_.clear();
  recv_cache_.clear();
}

}  // namespace mar::ship
