// Shared test world: simulator + network + platform + stocked resources.
#pragma once

#include <memory>

#include "agent/node_runtime.h"
#include "agent/platform.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "resource/bank.h"
#include "resource/directory.h"
#include "resource/exchange.h"
#include "resource/mailbox.h"
#include "resource/mint.h"
#include "resource/shop.h"
#include "sim/simulator.h"

namespace mar::harness {

/// A world of `node_count` nodes, each hosting one instance of every
/// built-in resource ("bank", "shop", "exchange", "mint", "dir"), with
/// deterministic seed-driven randomness.
class TestWorld {
 public:
  explicit TestWorld(agent::PlatformConfig config = {}, int node_count = 4,
                     std::uint64_t seed = 7)
      : net(sim), faults(sim, net), platform(sim, net, config, seed) {
    for (int i = 1; i <= node_count; ++i) {
      auto& rt = platform.add_node(NodeId(static_cast<std::uint32_t>(i)));
      auto& rm = rt.resources();
      rm.add_resource("bank", std::make_unique<resource::Bank>());
      rm.add_resource("shop", std::make_unique<resource::Shop>());
      rm.add_resource("exchange", std::make_unique<resource::Exchange>());
      rm.add_resource("mint", std::make_unique<resource::Mint>());
      rm.add_resource("dir", std::make_unique<resource::Directory>());
      rm.add_resource("mailbox", std::make_unique<resource::Mailbox>());
    }
  }

  [[nodiscard]] static NodeId n(int i) {
    return NodeId(static_cast<std::uint32_t>(i));
  }

  /// Committed state of a resource on a node (post-commit assertions).
  [[nodiscard]] const serial::Value& committed(int node,
                                               const std::string& res) {
    return platform.node(n(node)).resources().committed_state(res);
  }

  /// Seed a directory entry on a node (world setup, not transactional).
  void publish(int node, const std::string& key, serial::Value value) {
    auto& rm = platform.node(n(node)).resources();
    serial::Value state = rm.committed_state("dir");
    state.as_map().at("entries").set(key, std::move(value));
    rm.poke_state("dir", std::move(state));
  }

  /// Seed a bank account with a balance.
  void open_account(int node, const std::string& account,
                    std::int64_t balance, bool overdraft = false) {
    auto& rm = platform.node(n(node)).resources();
    serial::Value state = rm.committed_state("bank");
    serial::Value acc = serial::Value::empty_map();
    acc.set("balance", balance);
    acc.set("overdraft", overdraft);
    state.as_map().at("accounts").set(account, std::move(acc));
    rm.poke_state("bank", std::move(state));
  }

  /// Seed shop inventory.
  void stock(int node, const std::string& item, std::int64_t qty,
             std::int64_t price, std::int64_t cancel_fee = 0) {
    auto& rm = platform.node(n(node)).resources();
    serial::Value state = rm.committed_state("shop");
    serial::Value entry = serial::Value::empty_map();
    entry.set("qty", qty);
    entry.set("price", price);
    state.as_map().at("items").set(item, std::move(entry));
    state.set("cancel_fee", cancel_fee);
    rm.poke_state("shop", std::move(state));
  }

  /// Seed an exchange rate (and its inverse).
  void set_rate(int node, const std::string& from, const std::string& to,
                std::int64_t rate_ppm) {
    auto& rm = platform.node(n(node)).resources();
    serial::Value state = rm.committed_state("exchange");
    state.as_map().at("rates").set(from + "/" + to, rate_ppm);
    const auto inverse =
        (resource::Exchange::kRateScale * resource::Exchange::kRateScale +
         rate_ppm / 2) /
        rate_ppm;
    state.as_map().at("rates").set(to + "/" + from, inverse);
    rm.poke_state("exchange", std::move(state));
  }

  /// Run the simulator dry. Returns how long the world stayed busy after
  /// its last message delivery: a timer still armed for a reason that
  /// already ended shows up as a late drain.
  sim::TimeUs drain_after_last_delivery() {
    sim::TimeUs last = sim.now();
    auto delivered = net.stats().messages_delivered;
    while (sim.step()) {
      if (net.stats().messages_delivered != delivered) {
        delivered = net.stats().messages_delivered;
        last = sim.now();
      }
    }
    return sim.now() - last;
  }

  /// One link round trip of a header-only frame: how long a crash-free
  /// world may stay busy after its last delivery (the final acks).
  [[nodiscard]] sim::TimeUs header_round_trip() const {
    return 2 * net.transfer_time(n(1), n(2), net::Message::kHeaderBytes);
  }

  sim::Simulator sim;
  net::Network net;
  net::FaultInjector faults;
  agent::Platform platform;
};

}  // namespace mar::harness
