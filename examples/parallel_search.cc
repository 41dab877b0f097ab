// Parallel search: multi-agent exactly-once execution (Sec. 6).
//
// The paper's future work names "an enhanced agent execution model
// supporting exactly-once executions comprising more than one agent".
// This example is a price search fanned out over a fleet of child agents:
//
//   * a master agent SPAWNS one searcher per region — each spawn commits
//     atomically with the master's step, so a crash can never duplicate
//     or lose a searcher;
//   * each searcher tours its region's shops, collecting quotes into its
//     weakly reversible "result", and the platform delivers that result
//     into the master's mailbox within the searcher's FINAL step
//     transaction (exactly-once delivery);
//   * the master JOINS: its join step parks (abort + restart) until every
//     result has arrived, then buys at the cheapest shop found.
//
// Had the master rolled its spawning step back, the automatically logged
// "sys.cancel_child" compensating entries would cancel the searchers —
// running ones perform a complete rollback of their committed steps,
// finished ones are re-injected as compensating executions.
#include <iostream>
#include <memory>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "agent/platform.h"
#include "agent/step_context.h"
#include "net/network.h"
#include "resource/mailbox.h"
#include "resource/shop.h"
#include "sim/simulator.h"

using namespace mar;

namespace {

serial::Value kv(
    std::initializer_list<std::pair<std::string, serial::Value>> pairs) {
  serial::Value v = serial::Value::empty_map();
  for (auto& [k, val] : pairs) v.set(k, val);
  return v;
}

/// Visits the shops of one region and reports the best offer it saw.
class SearcherAgent final : public agent::Agent {
 public:
  SearcherAgent() {
    data().declare_strong("visited", serial::Value::empty_list());
    data().declare_weak("result", serial::Value{});  // {node, price}
  }
  std::string type_name() const override { return "searcher"; }

  void run_step(const std::string& step, agent::StepContext& ctx) override {
    if (step != "scan") return;
    auto stock = ctx.invoke("shop", "stock", kv({{"item", "lens"}}));
    if (!stock.is_ok() || stock.value().at("qty").as_int() == 0) return;
    const auto price = stock.value().at("price").as_int();
    auto& best = data().weak("result");
    if (best.is_null() || price < best.at("price").as_int()) {
      best = kv({{"node", static_cast<std::int64_t>(ctx.node().value())},
                 {"price", price}});
    }
    data().strong("visited").push_back(
        static_cast<std::int64_t>(ctx.node().value()));
  }
};

/// Spawns one searcher per region, joins their reports, buys the best.
class MasterAgent final : public agent::Agent {
 public:
  MasterAgent() {
    data().declare_strong("log", serial::Value::empty_list());
    data().declare_weak("regions", serial::Value::empty_list());
    data().declare_weak("best", serial::Value{});
    data().declare_weak("purchase", serial::Value{});
    data().declare_weak("cash", std::int64_t{1000});
  }
  std::string type_name() const override { return "search-master"; }

  void add_region(std::vector<std::uint32_t> shop_nodes) {
    serial::Value region = serial::Value::empty_list();
    for (const auto n : shop_nodes) {
      region.push_back(static_cast<std::int64_t>(n));
    }
    data().weak("regions").push_back(std::move(region));
  }

  void run_step(const std::string& step, agent::StepContext& ctx) override {
    if (step == "spawn") {
      const auto& regions = data().weak("regions").as_list();
      for (std::size_t i = 0; i < regions.size(); ++i) {
        auto searcher = std::make_unique<SearcherAgent>();
        agent::Itinerary tour;
        for (const auto& node : regions[i].as_list()) {
          tour.step("scan",
                    NodeId(static_cast<std::uint32_t>(node.as_int())));
        }
        agent::Itinerary main;
        main.sub(std::move(tour));
        searcher->itinerary() = std::move(main);
        ctx.spawn_child(std::move(searcher), ctx.node(),
                        "region-" + std::to_string(i));
        std::cout << "[master] spawned searcher for region " << i << "\n";
      }
      return;
    }
    if (step == "join") {
      const auto regions = data().weak("regions").as_list().size();
      for (std::size_t i = 0; i < regions; ++i) {
        auto r = ctx.join_child("region-" + std::to_string(i));
        if (!r.is_ok()) return;  // parked until the result arrives
        const auto& record = r.value().at("value");
        if (!record.at("ok").as_bool()) continue;
        const auto& offer = record.at("result");
        if (offer.is_null()) continue;
        std::cout << "[master] region " << i << ": best offer "
                  << offer.at("price").as_int() << " at N"
                  << offer.at("node").as_int() << "\n";
        auto& best = data().weak("best");
        if (best.is_null() ||
            offer.at("price").as_int() < best.at("price").as_int()) {
          best = offer;
        }
      }
      return;
    }
    if (step == "buy") {
      const auto& best = data().weak("best");
      if (best.is_null()) return;
      auto r = ctx.invoke("shop", "buy",
                          kv({{"item", "lens"},
                              {"qty", std::int64_t{1}},
                              {"payment", data().weak("cash")},
                              {"now", static_cast<std::int64_t>(
                                          ctx.now_us())}}));
      if (!r.is_ok()) return;
      const auto cost = r.value().at("cost").as_int();
      data().weak("cash") = data().weak("cash").as_int() - cost;
      data().weak("purchase") = best;
      ctx.log_mixed_compensation("shop", "undo.buy",
                                 kv({{"order", r.value().at("order")}}));
      std::cout << "[master] bought lens at N" << ctx.node().value()
                << " for " << cost << "\n";
    }
  }
};

}  // namespace

int main() {
  sim::Simulator sim;
  net::Network net(sim);
  agent::Platform platform(sim, net);

  // N1 is the master's home; N2..N7 host shops in two regions.
  struct ShopSetup {
    std::uint32_t node;
    std::int64_t qty;
    std::int64_t price;
  };
  platform.add_node(NodeId(1)).resources().add_resource(
      "mailbox", std::make_unique<resource::Mailbox>());
  for (const auto& s : std::initializer_list<ShopSetup>{
           {2, 5, 420}, {3, 0, 0}, {4, 2, 360},       // region 0
           {5, 1, 390}, {6, 3, 345}, {7, 4, 500}}) {  // region 1
    auto& node = platform.add_node(NodeId(s.node));
    node.resources().add_resource("shop",
                                  std::make_unique<resource::Shop>());
    if (s.price > 0) {
      auto& rm = node.resources();
      auto state = rm.committed_state("shop");
      state.as_map().at("items").set(
          "lens", kv({{"qty", s.qty}, {"price", s.price}}));
      rm.poke_state("shop", std::move(state));
    }
  }

  platform.agent_types().register_type<SearcherAgent>("searcher");
  platform.agent_types().register_type<MasterAgent>("search-master");
  platform.compensations().register_op(
      "undo.buy", [](rollback::CompensationContext& ctx) {
        auto r = ctx.invoke(
            "shop", "cancel",
            kv({{"order", ctx.params().at("order")},
                {"now", static_cast<std::int64_t>(ctx.now_us())}}));
        if (!r.is_ok()) return r.status();
        auto& cash = ctx.weak("cash");
        cash = cash.as_int() + r.value().at("refund").as_int();
        return Status::ok();
      });

  auto master = std::make_unique<MasterAgent>();
  master->add_region({2, 3, 4});
  master->add_region({5, 6, 7});
  agent::Itinerary plan;
  plan.step("spawn", NodeId(1)).step("join", NodeId(1));
  agent::Itinerary buy_leg;
  buy_leg.step("buy", NodeId(6));  // cheapest shop (345) is on N6
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(plan));
  main_itinerary.sub(std::move(buy_leg));
  master->itinerary() = std::move(main_itinerary);

  auto id = platform.launch(std::move(master));
  if (!id.is_ok()) {
    std::cerr << "launch failed: " << id.status() << "\n";
    return 1;
  }
  platform.run_until_finished(id.value());
  sim.run();  // drain terminal bookkeeping of the children

  const auto& outcome = platform.outcome(id.value());
  auto fin = platform.decode(outcome.final_agent);
  const auto& purchase = fin->data().weak("purchase");
  std::cout << "\n--- summary ---\n"
            << "master: "
            << (outcome.state == agent::AgentOutcome::State::done ? "done"
                                                                  : "failed")
            << ", searchers spawned: "
            << platform.children_of(id.value()).size()
            << ", cash left: " << fin->data().weak("cash").as_int() << "\n";
  const bool ok = outcome.state == agent::AgentOutcome::State::done &&
                  !purchase.is_null() &&
                  purchase.at("price").as_int() == 345 &&
                  fin->data().weak("cash").as_int() == 1000 - 345;
  return ok ? 0 : 1;
}
