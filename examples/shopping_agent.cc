// Shopping agent: the paper's e-commerce motivation.
//
// An agent with digital cash tours three shops looking for a "camera". It
// buys at the first shop that has one in stock, keeps comparing prices,
// and if a later shop is cheaper it *partially rolls back* the earlier
// purchase: the shop's cancel policy may charge a fee or hand out a credit
// note instead of cash (Sec. 3.2's time-dependent reimbursement), so the
// agent's wallet after compensation is equivalent — not identical — to its
// earlier state, which is why the wallet is a weakly reversible object.
#include <iostream>
#include <memory>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "agent/platform.h"
#include "agent/step_context.h"
#include "net/network.h"
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

class ShoppingAgent final : public agent::Agent {
 public:
  ShoppingAgent() {
    data().declare_strong("quotes", serial::Value::empty_list());
    data().declare_weak("cash", std::int64_t{1000});
    data().declare_weak("purchase", serial::Value{});  // {order, price, node}
    // Market knowledge deliberately has NO compensating operations: it is
    // the agent's experience and survives a rollback — that is what stops
    // the agent from making the same bad purchase twice.
    data().declare_weak("best_seen", serial::Value{});  // {node, price}
    data().declare_weak("credit_notes", serial::Value::empty_list());
  }

  std::string type_name() const override { return "shopper"; }

  void run_step(const std::string& step, agent::StepContext& ctx) override {
    if (step == "visit_shop") {
      visit(ctx);
    } else if (step == "decide") {
      decide(ctx);
    } else if (step == "report") {
      report();
    }
  }

 private:
  void visit(agent::StepContext& ctx) {
    auto stock = ctx.invoke("shop", "stock", kv({{"item", "camera"}}));
    if (!stock.is_ok()) return;  // shop doesn't carry cameras
    const auto price = stock.value().at("price").as_int();
    const auto qty = stock.value().at("qty").as_int();
    data().strong("quotes").push_back(kv(
        {{"node", static_cast<std::int64_t>(ctx.node().value())},
         {"price", price},
         {"qty", qty}}));
    std::cout << "[agent] N" << ctx.node().value() << ": camera at " << price
              << " (" << qty << " in stock)\n";
    if (qty == 0) return;

    auto& best = data().weak("best_seen");
    if (best.is_null() || price < best.at("price").as_int()) {
      best = kv({{"node", static_cast<std::int64_t>(ctx.node().value())},
                 {"price", price}});
    }
    // Buy here only if this is the best offer seen so far.
    if (data().weak("purchase").is_null() &&
        price <= best.at("price").as_int()) {
      buy(ctx, price);
    }
  }

  void decide(agent::StepContext& ctx) {
    const auto& purchase = data().weak("purchase");
    const auto& best = data().weak("best_seen");
    if (purchase.is_null() || best.is_null()) return;
    const auto paid = purchase.at("price").as_int();
    const auto best_price = best.at("price").as_int();
    if (paid > best_price + 50) {
      // A considerably better offer exists: undo the purchase. The
      // platform aborts this step, compensates everything back to the
      // savepoint (cancelling the order, minus the shop's fee), and the
      // re-run buys at the best shop — guided by the surviving
      // "best_seen" knowledge.
      std::cout << "[agent] paid " << paid << " but best offer is "
                << best_price << ": rolling back the purchase\n";
      ctx.request_rollback_sub_itinerary();
    }
  }

  void buy(agent::StepContext& ctx, std::int64_t price) {
    auto r = ctx.invoke(
        "shop", "buy",
        kv({{"item", "camera"},
            {"qty", std::int64_t{1}},
            {"payment", data().weak("cash")},
            {"now", static_cast<std::int64_t>(ctx.now_us())}}));
    if (!r.is_ok()) {
      std::cout << "[agent] buy failed: " << r.status() << "\n";
      return;
    }
    data().weak("cash") = data().weak("cash").as_int() - price;
    data().weak("purchase") =
        kv({{"order", r.value().at("order")},
            {"price", price},
            {"node", static_cast<std::int64_t>(ctx.node().value())}});
    std::cout << "[agent] bought camera at N" << ctx.node().value() << " for "
              << price << "\n";
    // Cancelling needs the shop (resource) AND the wallet/credit notes
    // (weak agent state): a mixed compensation entry.
    ctx.log_mixed_compensation("shop", "undo.buy",
                               kv({{"order", r.value().at("order")}}));
  }

  void report() {
    const auto& purchase = data().weak("purchase");
    std::cout << "[agent] final: cash=" << data().weak("cash").as_int();
    if (!purchase.is_null()) {
      std::cout << ", camera from N" << purchase.at("node").as_int()
                << " at " << purchase.at("price").as_int();
    }
    const auto& notes = data().weak("credit_notes").as_list();
    if (!notes.empty()) {
      std::cout << ", " << notes.size() << " credit note(s)";
    }
    std::cout << "\n";
  }
};

}  // namespace

int main() {
  sim::Simulator sim;
  net::Network net(sim);
  agent::Platform platform(sim, net);

  struct ShopSetup {
    std::uint32_t node;
    std::int64_t qty;
    std::int64_t price;
    std::int64_t fee;
  };
  // N2 sells at 400 (cancel fee 25), N3 is sold out, N4 sells at 300.
  for (const auto& s : std::initializer_list<ShopSetup>{
           {1, 0, 0, 0}, {2, 3, 400, 25}, {3, 0, 450, 0}, {4, 5, 300, 10}}) {
    auto& node = platform.add_node(NodeId(s.node));
    node.resources().add_resource("shop",
                                  std::make_unique<resource::Shop>());
    if (s.price > 0) {
      auto& rm = node.resources();
      auto state = rm.committed_state("shop");
      state.as_map().at("items").set(
          "camera", kv({{"qty", s.qty}, {"price", s.price}}));
      state.set("cancel_fee", s.fee);
      rm.poke_state("shop", std::move(state));
    }
  }

  platform.agent_types().register_type<ShoppingAgent>("shopper");
  platform.compensations().register_op(
      "undo.buy", [](rollback::CompensationContext& ctx) {
        auto r = ctx.invoke(
            "shop", "cancel",
            kv({{"order", ctx.params().at("order")},
                {"now", static_cast<std::int64_t>(ctx.now_us())}}));
        if (!r.is_ok()) return r.status();
        // Integrate the (possibly reduced) refund into the agent's data.
        if (r.value().at("mode").as_string() == "cash") {
          auto& cash = ctx.weak("cash");
          cash = cash.as_int() + r.value().at("refund").as_int();
        } else {
          ctx.weak("credit_notes").push_back(r.value().at("refund"));
        }
        ctx.weak("purchase") = serial::Value{};
        return Status::ok();
      });

  auto agent = std::make_unique<ShoppingAgent>();
  agent::Itinerary tour;
  for (std::uint32_t n = 1; n <= 4; ++n) tour.step("visit_shop", NodeId(n));
  tour.step("decide", NodeId(1));
  tour.step("report", NodeId(1));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(tour));
  agent->itinerary() = std::move(main_itinerary);

  auto id = platform.launch(std::move(agent));
  if (!id.is_ok()) {
    std::cerr << "launch failed: " << id.status() << "\n";
    return 1;
  }
  platform.run_until_finished(id.value());

  const auto& outcome = platform.outcome(id.value());
  auto fin = platform.decode(outcome.final_agent);
  std::cout << "\n--- summary ---\n"
            << "rollback transfers: " << platform.rollback_transfers() << "\n"
            << "compensation transactions committed: "
            << platform.spans().count(EventKind::comp_commit) << "\n"
            << "cash: " << fin->data().weak("cash").as_int()
            << " (1000 - 400 + (400-25 refund) - 300 = 675)\n";
  return outcome.state == agent::AgentOutcome::State::done ? 0 : 1;
}
