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

void Network::add_node(NodeId id) {
  MAR_CHECK_MSG(!nodes_.contains(id), "node already registered: " << id);
  nodes_.emplace(id, NodeState{});
}

void Network::on(NodeId id, MsgType type, Handler handler) {
  auto it = nodes_.find(id);
  MAR_CHECK_MSG(it != nodes_.end(), "unknown node " << id);
  Handler& slot = it->second.handlers[index(type)];
  MAR_CHECK_MSG(!slot, "node " << id << ": a handler for " << name(type)
                                << " is already registered");
  slot = std::move(handler);
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
  // A crash starts a new sender incarnation: the lost outbox can never
  // fill the old numbering's gaps, so the numbering restarts. Transmissions
  // of the old incarnation already in flight still land, by stale_until.
  const auto incarnation = ++it->second.incarnation;
  for (auto& [key, ch] : channels_) {
    if (static_cast<std::uint32_t>(key) == id.value()) {
      ch.windows.clear();  // receiver dedup state is volatile
    }
    if (key >> 32 == id.value()) {
      ch.stale_until = std::max(ch.stale_until, ch.last_arrival);
      ch.incarnation = incarnation;
      ch.base = 1;
      ch.holds.clear();
    }
  }
  // Retransmission state of the crashed sender is volatile too; its
  // timers go with it.
  std::erase_if(outbox_, [this, id](const auto& kv) {
    if (kv.second.msg->from != id) return false;
    sim_.cancel(kv.second.retransmit);
    return true;
  });
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
  auto from = nodes_.find(msg.from);
  MAR_CHECK_MSG(from != nodes_.end(), "unknown source " << msg.from);
  msg.id = MsgId(next_msg_id_++);
  ++stats_.messages_sent;
  if (msg.from == msg.to) {
    // Local dispatch: no network cost, no retransmission needed, but
    // deliver asynchronously so callers never re-enter handlers.
    auto local = std::make_shared<const Message>(std::move(msg));
    // mar-lint: one-shot (a delivery)
    sim_.schedule_after(0, [this, local = std::move(local)] {
      auto it = nodes_.find(local->to);
      if (it == nodes_.end() || !it->second.up) return;
      dispatch(it->second, *local);
    });
    return;
  }
  auto [cit, fresh] = channels_.try_emplace(channel_key(msg.from, msg.to));
  Channel& ch = cit->second;
  if (fresh) ch.incarnation = from->second.incarnation;
  msg.incarnation = ch.incarnation;
  msg.seq = ch.base + ch.holds.size();
  ch.holds.push_back(1);  // the outbox entry's hold, released by the ack
  const MsgId id = msg.id;
  auto shared = std::make_shared<const Message>(std::move(msg));
  Pending& p = outbox_.emplace(id, Pending{shared, {}}).first->second;
  transmit(ch, shared);
  arm_retransmit(id, p);
}

void Network::transmit(Channel& ch, const MessagePtr& msg) {
  ++stats_.transmissions;
  stats_.bytes_sent += msg->wire_size();
  stats_.bytes_by_type[index(msg->type)] += msg->wire_size();
  const auto delay = transfer_time(msg->from, msg->to, msg->wire_size());
  ++ch.holds[msg->seq - ch.base];  // this copy may still arrive
  ch.last_arrival = std::max(ch.last_arrival, sim_.now() + delay);
  // mar-lint: one-shot (a delivery)
  sim_.schedule_after(delay, [this, msg] { deliver(*msg); });
}

void Network::deliver(const Message& msg) {
  Channel& ch = channel(msg.from, msg.to);
  // Loss conditions are evaluated at delivery time: a message in flight
  // when the destination crashes is lost.
  auto it = nodes_.find(msg.to);
  bool fresh = false;
  if (link_up(msg.from, msg.to) && it != nodes_.end() && it->second.up) {
    // Acknowledge even duplicates (the original ack may have been lost).
    deliver_ack(msg.to, msg.from, msg.id);
    fresh = first_arrival(ch, msg);
  }
  release(ch, msg);
  if (fresh) dispatch(it->second, msg);
}

void Network::dispatch(NodeState& node, const Message& msg) {
  const Handler& handler = node.handlers[index(msg.type)];
  MAR_CHECK_MSG(handler, "node " << msg.to << " has no handler for "
                                 << name(msg.type));
  ++stats_.messages_delivered;
  handler(msg);
}

bool Network::first_arrival(Channel& ch, const Message& msg) {
  auto& windows = ch.windows;
  if (sim_.now() > ch.stale_until) {
    // Every transmission of an older sender incarnation has landed.
    std::erase_if(windows, [&ch](const Window& w) {
      return w.incarnation != ch.incarnation;
    });
  }
  auto w = std::find_if(windows.begin(), windows.end(),
                        [&msg](const Window& x) {
                          return x.incarnation == msg.incarnation;
                        });
  if (w == windows.end()) w = windows.insert(w, Window{msg.incarnation, 0, {}});
  // The sender's low-water mark: no number below its base can arrive
  // again, so the watermark may pass them. This keeps the window bounded
  // after the receiver's own crash forgot the delivered prefix.
  if (msg.incarnation == ch.incarnation) {
    w->floor = std::max(w->floor, ch.base - 1);
  }
  auto& above = w->above;
  const auto pos = std::lower_bound(above.begin(), above.end(), msg.seq);
  if (msg.seq <= w->floor || (pos != above.end() && *pos == msg.seq)) {
    return false;  // duplicate
  }
  above.insert(pos, msg.seq);
  // Fold every number the watermark now reaches into it.
  auto reached = above.begin();
  for (; reached != above.end() && *reached <= w->floor + 1; ++reached) {
    w->floor = std::max(w->floor, *reached);
  }
  above.erase(above.begin(), reached);
  return true;
}

void Network::release(Channel& ch, const Message& msg) {
  if (msg.incarnation != ch.incarnation) return;  // older incarnation
  --ch.holds[msg.seq - ch.base];
  while (!ch.holds.empty() && ch.holds.front() == 0) {
    ch.holds.pop_front();
    ++ch.base;
  }
}

void Network::deliver_ack(NodeId receiver, NodeId sender, MsgId id) {
  // An ack is a tiny frame travelling back over the same link.
  const auto delay = transfer_time(receiver, sender, kAckBytes);
  // mar-lint: one-shot (a delivery)
  sim_.schedule_after(delay, [this, receiver, sender, id] {
    if (!link_up(receiver, sender)) return;  // lost; duplicate will re-ack
    auto nit = nodes_.find(sender);
    if (nit == nodes_.end() || !nit->second.up) return;
    auto it = outbox_.find(id);
    if (it == outbox_.end()) return;  // an earlier copy's ack got here first
    sim_.cancel(it->second.retransmit);
    release(channel(sender, receiver), *it->second.msg);
    outbox_.erase(it);
  });
}

void Network::arm_retransmit(MsgId id, Pending& p) {
  // Wait at least twice the round trip of this message and its ack: a
  // slow link must not carry a second copy of a message whose first is
  // still on the wire.
  const auto& m = *p.msg;
  const auto round_trip = transfer_time(m.from, m.to, m.wire_size()) +
                          transfer_time(m.to, m.from, kAckBytes);
  const auto interval = std::max(kRetransmitIntervalUs, 2 * round_trip);
  p.retransmit = sim_.schedule_after(interval, [this, id] {
    // Armed only while the message is unacked: an ack or the sender's
    // crash cancels it.
    Pending& pending = outbox_.at(id);
    const auto& msg = *pending.msg;
    // Retransmissions cost wire bytes too.
    transmit(channel(msg.from, msg.to), pending.msg);
    arm_retransmit(id, pending);
  });
}

std::size_t Network::dedup_entries(NodeId receiver) const {
  std::size_t n = 0;
  for (const auto& [key, ch] : channels_) {
    if (static_cast<std::uint32_t>(key) != receiver.value()) continue;
    for (const auto& w : ch.windows) n += 1 + w.above.size();
  }
  return n;
}

}  // namespace mar::net
