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
//   * receivers deduplicate by message id, giving at-most-once dispatch to
//     the handler under retransmission (handlers stay idempotent anyway,
//     because dedup state is volatile and lost on a crash — exactly the
//     situation a real messaging layer faces).
//
// The cost model (per-message latency plus size over bandwidth) is the one
// Straßer & Schwehm's performance model for mobile agent systems uses
// (ref [16]), which experiment E7 reproduces.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

  /// Retransmission interval for unacknowledged messages.
  void set_retransmit_interval(sim::TimeUs t) { retransmit_interval_ = t; }

 private:
  struct NodeState {
    Handler handler;
    bool up = true;
    /// Dedup of delivered reliable message ids (volatile: cleared on crash).
    std::unordered_set<MsgId> seen;
  };
  struct Pending {
    Message msg;
    bool acked = false;
  };

  [[nodiscard]] const LinkParams& link_params(NodeId a, NodeId b) const;
  void transmit(const Message& msg, bool count_bytes);
  void deliver(const Message& msg);
  void deliver_ack(NodeId receiver, NodeId sender, MsgId id);
  void schedule_retransmit(MsgId id);

  sim::Simulator& sim_;
  LinkParams default_link_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> links_;
  std::map<std::pair<NodeId, NodeId>, bool> link_state_;
  std::unordered_map<NodeId, NodeState> nodes_;
  std::unordered_map<MsgId, Pending> outbox_;
  std::vector<NodeStateListener> listeners_;
  NetStats stats_;
  std::uint64_t next_msg_id_ = 1;
  sim::TimeUs retransmit_interval_ = 50'000;  // 50 ms
};

}  // namespace mar::net
