#include "net/network.h"

#include <algorithm>

#include "util/check.h"

namespace mar::net {

namespace {
std::pair<NodeId, NodeId> normalized(NodeId a, NodeId b) {
  return (a.value() <= b.value()) ? std::make_pair(a, b)
                                  : std::make_pair(b, a);
}
}  // namespace

void Network::add_node(NodeId id, Handler handler) {
  MAR_CHECK_MSG(!nodes_.contains(id), "node already registered: " << id);
  nodes_.emplace(id, NodeState{std::move(handler), /*up=*/true, {}});
}

std::vector<NodeId> Network::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, _] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Network::set_link(NodeId a, NodeId b, LinkParams params) {
  links_[normalized(a, b)] = params;
}

const LinkParams& Network::link_params(NodeId a, NodeId b) const {
  auto it = links_.find(normalized(a, b));
  return (it != links_.end()) ? it->second : default_link_;
}

void Network::crash_node(NodeId id) {
  auto it = nodes_.find(id);
  MAR_CHECK(it != nodes_.end());
  if (!it->second.up) return;
  it->second.up = false;
  it->second.seen.clear();  // dedup state is volatile
  // Retransmission state of the crashed sender is volatile too.
  std::erase_if(outbox_,
                [id](const auto& kv) { return kv.second.msg.from == id; });
  for (const auto& l : listeners_) l(id, false);
}

void Network::recover_node(NodeId id) {
  auto it = nodes_.find(id);
  MAR_CHECK(it != nodes_.end());
  if (it->second.up) return;
  it->second.up = true;
  for (const auto& l : listeners_) l(id, true);
}

bool Network::node_up(NodeId id) const {
  auto it = nodes_.find(id);
  MAR_CHECK(it != nodes_.end());
  return it->second.up;
}

void Network::set_link_up(NodeId a, NodeId b, bool up) {
  link_state_[normalized(a, b)] = up;
}

bool Network::link_up(NodeId a, NodeId b) const {
  auto it = link_state_.find(normalized(a, b));
  return (it == link_state_.end()) ? true : it->second;
}

void Network::subscribe_node_state(NodeStateListener listener) {
  listeners_.push_back(std::move(listener));
}

sim::TimeUs Network::transfer_time(NodeId from, NodeId to,
                                   std::size_t bytes) const {
  if (from == to) return 0;
  const auto& lp = link_params(from, to);
  return lp.latency_us +
         static_cast<sim::TimeUs>(static_cast<double>(bytes) /
                                  lp.bandwidth_bytes_per_us);
}

void Network::send(Message msg) {
  MAR_CHECK_MSG(nodes_.contains(msg.to), "unknown destination " << msg.to);
  MAR_CHECK_MSG(nodes_.contains(msg.from), "unknown source " << msg.from);
  msg.id = MsgId(next_msg_id_++);
  ++stats_.messages_sent;
  if (msg.from == msg.to) {
    // Local dispatch: no network cost, no retransmission needed, but
    // deliver asynchronously so callers never re-enter handlers.
    Message local = std::move(msg);
    sim_.schedule_after(0, [this, local = std::move(local)] {
      auto it = nodes_.find(local.to);
      if (it == nodes_.end() || !it->second.up) return;
      ++stats_.messages_delivered;
      it->second.handler(local);
    });
    return;
  }
  const MsgId id = msg.id;
  outbox_.emplace(id, Pending{std::move(msg), false});
  transmit(outbox_.at(id).msg, /*count_bytes=*/true);
  schedule_retransmit(id);
}

void Network::transmit(const Message& msg, bool count_bytes) {
  ++stats_.transmissions;
  if (count_bytes) {
    stats_.bytes_sent += msg.wire_size();
    stats_.bytes_by_type[msg.type] += msg.wire_size();
  }
  const auto delay = transfer_time(msg.from, msg.to, msg.wire_size());
  Message copy = msg;
  sim_.schedule_after(delay, [this, copy = std::move(copy)] {
    deliver(copy);
  });
}

void Network::deliver(const Message& msg) {
  // Loss conditions are evaluated at delivery time: a message in flight
  // when the destination crashes is lost.
  if (!link_up(msg.from, msg.to)) return;
  auto it = nodes_.find(msg.to);
  if (it == nodes_.end() || !it->second.up) return;

  // Acknowledge even duplicates (the original ack may have been lost).
  deliver_ack(msg.to, msg.from, msg.id);
  if (!it->second.seen.insert(msg.id).second) return;  // duplicate
  ++stats_.messages_delivered;
  it->second.handler(msg);
}

void Network::deliver_ack(NodeId receiver, NodeId sender, MsgId id) {
  // An ack is a tiny frame travelling back over the same link.
  const auto delay = transfer_time(receiver, sender, /*bytes=*/16);
  sim_.schedule_after(delay, [this, receiver, sender, id] {
    if (!link_up(receiver, sender)) return;  // lost; duplicate will re-ack
    auto nit = nodes_.find(sender);
    if (nit == nodes_.end() || !nit->second.up) return;
    outbox_.erase(id);
  });
}

void Network::schedule_retransmit(MsgId id) {
  sim_.schedule_after(retransmit_interval_, [this, id] {
    auto it = outbox_.find(id);
    if (it == outbox_.end()) return;  // acked or sender crashed
    // Retransmissions cost wire bytes too.
    transmit(it->second.msg, /*count_bytes=*/true);
    schedule_retransmit(id);
  });
}

}  // namespace mar::net
