// Simulated network with a latency/bandwidth cost model and a reliable
// (at-least-once, deduplicating) transport.
//
// The paper assumes "the network provides reliable data transfer" and that
// node/network crashes are non-lasting (Sec. 4.3). This module provides
// exactly that fault model:
//   * the raw channel delivers a message after latency + size/bandwidth,
//     dropping it if the destination or the link is down at delivery time;
//   * the reliable layer retransmits until acknowledged, so transient
//     outages only delay delivery;
//   * receivers deduplicate by per-channel sequence number, giving
//     at-most-once dispatch to the handler under retransmission. The
//     dedup state per (sender, sender incarnation) is a cumulative
//     watermark plus the few numbers delivered above it, so it is bounded
//     by the sender's unacknowledged window (DESIGN.md §13). It is volatile
//     and lost in the receiver's crash, so handlers stay idempotent —
//     exactly the situation a real messaging layer faces.
//
// The outbox and every in-flight transmission share one immutable
// Message: retransmissions copy a pointer, never the payload.
//
// The cost model (per-message latency plus size over bandwidth) is the one
// Straßer & Schwehm's performance model for mobile agent systems uses
// (ref [16]), which experiment E7 reproduces.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serial/encoder.h"
#include "sim/simulator.h"
#include "util/ids.h"

namespace mar::net {

/// A protocol message. `type` selects the handler branch at the receiver;
/// `payload` is an opaque serialized body.
struct Message {
  NodeId from;
  NodeId to;
  std::string type;
  serial::Bytes payload;
  MsgId id = MsgId::invalid();  ///< Assigned by the reliable layer.
  /// Assigned by the reliable layer too: the sender's incarnation (bumped
  /// by each of its crashes) and the message's number on the (from, to)
  /// channel within it, counted from 1.
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;

  /// Wire size used by the cost model: payload plus a fixed header.
  [[nodiscard]] std::size_t wire_size() const {
    return payload.size() + type.size() + kHeaderBytes;
  }
  static constexpr std::size_t kHeaderBytes = 48;
};

/// Link cost parameters. Defaults approximate a late-90s LAN.
struct LinkParams {
  sim::TimeUs latency_us = 500;          ///< one-way propagation delay
  double bandwidth_bytes_per_us = 1.25;  ///< 10 Mbit/s
};

/// Aggregate traffic statistics, used by the network-load experiments.
struct NetStats {
  std::uint64_t messages_sent = 0;      ///< reliable sends (first attempts)
  std::uint64_t transmissions = 0;      ///< physical transmissions (w/ retx)
  std::uint64_t messages_delivered = 0; ///< handler dispatches after dedup
  std::uint64_t bytes_sent = 0;         ///< bytes over all transmissions
  std::map<std::string, std::uint64_t> bytes_by_type;

  void reset() { *this = NetStats{}; }
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  using NodeStateListener = std::function<void(NodeId, bool up)>;

  explicit Network(sim::Simulator& sim) : sim_(sim) {}

  // --- topology ----------------------------------------------------------
  /// Register a node and its message handler. Nodes start up.
  void add_node(NodeId id, Handler handler);
  [[nodiscard]] bool has_node(NodeId id) const { return nodes_.contains(id); }
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  void set_default_link(LinkParams params) { default_link_ = params; }
  /// Override parameters for the (a, b) pair, both directions.
  void set_link(NodeId a, NodeId b, LinkParams params);

  // --- fault control -----------------------------------------------------
  void crash_node(NodeId id);
  void recover_node(NodeId id);
  [[nodiscard]] bool node_up(NodeId id) const;
  void set_link_up(NodeId a, NodeId b, bool up);
  [[nodiscard]] bool link_up(NodeId a, NodeId b) const;
  void subscribe_node_state(NodeStateListener listener);

  // --- messaging ---------------------------------------------------------
  /// Reliable send: retransmits until the destination acknowledges.
  /// Local sends (to == from) are delivered through the same path with
  /// zero network cost.
  void send(Message msg);

  /// Predicted one-way transfer time for `bytes` between two nodes.
  [[nodiscard]] sim::TimeUs transfer_time(NodeId from, NodeId to,
                                          std::size_t bytes) const;

  [[nodiscard]] const NetStats& stats() const { return stats_; }
  NetStats& mutable_stats() { return stats_; }

  /// Retransmission interval for unacknowledged messages. A message whose
  /// round trip (with its ack) exceeds half of it waits twice its round
  /// trip instead.
  void set_retransmit_interval(sim::TimeUs t) { retransmit_interval_ = t; }

  /// Dedup state `receiver` holds: one watermark per (sender, sender
  /// incarnation) with possible arrivals, plus each sequence number
  /// delivered above its watermark.
  [[nodiscard]] std::size_t dedup_entries(NodeId receiver) const;
  /// Reliable messages sent and not yet acknowledged (all senders).
  [[nodiscard]] std::size_t unacked() const { return outbox_.size(); }

 private:
  using MessagePtr = std::shared_ptr<const Message>;
  struct NodeState {
    Handler handler;
    bool up = true;
    std::uint32_t incarnation = 0;  ///< bumped by each crash
  };
  /// Receiver-side dedup of one sender incarnation: every number <= floor
  /// was delivered or can never arrive; `above` holds the delivered ones
  /// past it, sorted.
  struct Window {
    std::uint32_t incarnation = 0;
    std::uint64_t floor = 0;
    std::vector<std::uint64_t> above;
  };
  /// One direction of a node pair.
  struct Channel {
    /// Sender side, for its current `incarnation`: `holds[i]` counts what
    /// can still bring number `base + i` to the receiver — its unacked
    /// outbox entry and each copy in flight. `base` passes a number once
    /// nothing holds it; no number below `base` can ever arrive again.
    std::uint32_t incarnation = 0;
    std::uint64_t base = 1;
    std::deque<std::uint32_t> holds;
    /// Latest arrival time of any transmission so far, and the time by
    /// which every transmission of an older sender incarnation landed.
    sim::TimeUs last_arrival = 0;
    sim::TimeUs stale_until = 0;
    /// Receiver side (volatile), one window per sender incarnation.
    std::vector<Window> windows;
  };
  struct Pending {
    MessagePtr msg;
    sim::EventId retransmit;
  };

  [[nodiscard]] const LinkParams& link_params(NodeId a, NodeId b) const;
  [[nodiscard]] static std::uint64_t channel_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
  }
  Channel& channel(NodeId from, NodeId to) {
    return channels_[channel_key(from, to)];
  }
  void transmit(Channel& ch, const MessagePtr& msg);
  void deliver(const Message& msg);
  /// Dedup verdict for an arriving `msg`: true the first time since the
  /// receiver's last crash.
  bool first_arrival(Channel& ch, const Message& msg);
  /// One hold on `msg`'s number ended; advance the channel base.
  static void release(Channel& ch, const Message& msg);
  void deliver_ack(NodeId receiver, NodeId sender, MsgId id);
  void arm_retransmit(MsgId id, Pending& p);

  /// Wire size of an acknowledgement frame.
  static constexpr std::size_t kAckBytes = 16;

  sim::Simulator& sim_;
  LinkParams default_link_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> links_;
  std::map<std::pair<NodeId, NodeId>, bool> link_state_;
  std::unordered_map<NodeId, NodeState> nodes_;
  std::unordered_map<std::uint64_t, Channel> channels_;
  std::unordered_map<MsgId, Pending> outbox_;
  std::vector<NodeStateListener> listeners_;
  NetStats stats_;
  std::uint64_t next_msg_id_ = 1;
  sim::TimeUs retransmit_interval_ = 50'000;  // 50 ms
};

}  // namespace mar::net
