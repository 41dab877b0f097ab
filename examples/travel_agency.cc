// Travel agency: a trip-booking saga with a non-vital leg (Sec. 5).
//
// An agent books a trip in three legs, each a top-level or nested
// sub-itinerary of its hierarchical itinerary (Sec. 4.4.2):
//
//   flight    book a seat (vital — without it there is no trip),
//   hotel     book a room (vital),
//   excursion an ALTERNATIVES entry (ref [14]): preferred option a guided
//             boat tour, fallback option a museum visit; the whole leg is
//             NON-vital (vital=false) — nice to have, not trip-critical.
//
// The boat tour is sold out, permanently — retrying cannot help, so the
// step declares itself failed with fail_step(). The platform rolls the
// failed option back to its entry savepoint (the guide reservation is
// compensated, minus the agency's cancellation fee) and enters the next
// option: the museum gets booked instead. Had the museum failed too, the
// exhausted alternatives would have propagated to the non-vital leg and
// the trip would simply have continued without an excursion.
//
// This is the paper's "non vital sub-sagas can be realized in our model by
// using flexible itineraries" (Sec. 5) plus ref [14]'s alternative
// entries, built on the partial-rollback mechanism of Sec. 4.
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

class TravelAgent final : public agent::Agent {
 public:
  TravelAgent() {
    data().declare_strong("itinerary_notes", serial::Value::empty_list());
    data().declare_weak("cash", std::int64_t{2000});
    data().declare_weak("bookings", serial::Value::empty_list());
  }

  std::string type_name() const override { return "traveller"; }

  void run_step(const std::string& step, agent::StepContext& ctx) override {
    if (step == "report") {
      report();
      return;
    }
    // Every other step books one item from the local vendor.
    book(ctx, step);
  }

 private:
  void book(agent::StepContext& ctx, const std::string& item) {
    auto stock = ctx.invoke("vendor", "stock", kv({{"item", item}}));
    if (!stock.is_ok() || stock.value().at("qty").as_int() == 0) {
      // Sold out for the season: no amount of retrying will help. The
      // platform decides what that means — abandon the innermost
      // non-vital sub-itinerary, or fail the agent if all are vital.
      std::cout << "[agent] N" << ctx.node().value() << ": " << item
                << " permanently unavailable\n";
      ctx.fail_step(Status(Errc::rejected, item + " is sold out"));
      return;
    }
    const auto price = stock.value().at("price").as_int();
    auto r = ctx.invoke("vendor", "buy",
                        kv({{"item", item},
                            {"qty", std::int64_t{1}},
                            {"payment", data().weak("cash")},
                            {"now", static_cast<std::int64_t>(
                                        ctx.now_us())}}));
    if (!r.is_ok()) {
      std::cout << "[agent] buy " << item << " failed: " << r.status()
                << "\n";
      return;
    }
    data().weak("cash") = data().weak("cash").as_int() - price;
    data().weak("bookings").push_back(
        kv({{"item", item},
            {"order", r.value().at("order")},
            {"price", price},
            {"node", static_cast<std::int64_t>(ctx.node().value())}}));
    data().strong("itinerary_notes")
        .push_back(serial::Value(item + "@" +
                                 std::to_string(ctx.node().value())));
    std::cout << "[agent] N" << ctx.node().value() << ": booked " << item
              << " for " << price << "\n";
    // Cancelling needs the vendor (resource) and the wallet/booking list
    // (weak agent state): a mixed compensation entry.
    ctx.log_mixed_compensation(
        "vendor", "undo.book",
        kv({{"order", r.value().at("order")}, {"item", item}}));
  }

  void report() {
    std::cout << "[agent] trip booked:";
    for (const auto& b : data().weak("bookings").as_list()) {
      std::cout << " " << b.at("item").as_string() << "(N"
                << b.at("node").as_int() << ")";
    }
    std::cout << ", cash left " << data().weak("cash").as_int() << "\n";
  }
};

}  // namespace

int main() {
  sim::Simulator sim;
  net::Network net(sim);
  agent::PlatformConfig cfg;
  cfg.strategy = agent::RollbackStrategy::adaptive;
  agent::Platform platform(sim, net, cfg);

  struct Vendor {
    std::uint32_t node;
    const char* item;
    std::int64_t qty;
    std::int64_t price;
    std::int64_t cancel_fee;
  };
  // The boat tour on N4 is sold out (qty 0) — the permanent failure.
  for (const auto& v : std::initializer_list<Vendor>{
           {1, "flight", 10, 800, 50},
           {2, "hotel", 4, 450, 20},
           {3, "guide", 2, 150, 15},
           {4, "boat_tour", 0, 300, 0},
           {6, "museum", 9, 120, 5},
           {5, "", 0, 0, 0}}) {  // N5 only hosts the report step
    auto& node = platform.add_node(NodeId(v.node));
    node.resources().add_resource("vendor",
                                  std::make_unique<resource::Shop>());
    if (v.price > 0) {
      auto& rm = node.resources();
      auto state = rm.committed_state("vendor");
      state.as_map().at("items").set(
          v.item, kv({{"qty", v.qty}, {"price", v.price}}));
      state.set("cancel_fee", v.cancel_fee);
      rm.poke_state("vendor", std::move(state));
    }
  }

  platform.agent_types().register_type<TravelAgent>("traveller");
  platform.compensations().register_op(
      "undo.book", [](rollback::CompensationContext& ctx) {
        auto r = ctx.invoke(
            "vendor", "cancel",
            kv({{"order", ctx.params().at("order")},
                {"now", static_cast<std::int64_t>(ctx.now_us())}}));
        if (!r.is_ok()) return r.status();
        auto& cash = ctx.weak("cash");
        cash = cash.as_int() + r.value().at("refund").as_int();
        auto& bookings = ctx.weak("bookings").as_list();
        const auto& item = ctx.params().at("item").as_string();
        std::erase_if(bookings, [&](const serial::Value& b) {
          return b.at("item").as_string() == item;
        });
        std::cout << "[comp] cancelled " << item << ", refund "
                  << r.value().at("refund").as_int() << "\n";
        return Status::ok();
      });

  auto agent = std::make_unique<TravelAgent>();
  agent::Itinerary flight;
  flight.step("flight", NodeId(1));
  agent::Itinerary hotel;
  hotel.step("hotel", NodeId(2));
  agent::Itinerary boat_option;
  boat_option.step("guide", NodeId(3)).step("boat_tour", NodeId(4));
  agent::Itinerary museum_option;
  museum_option.step("museum", NodeId(6));
  agent::Itinerary excursion;
  excursion.alt({std::move(boat_option), std::move(museum_option)});
  agent::Itinerary wrap_up;
  wrap_up.step("report", NodeId(5));
  agent::Itinerary trip;
  trip.sub(std::move(flight));
  trip.sub(std::move(hotel));
  trip.sub(std::move(excursion), /*vital=*/false);
  trip.sub(std::move(wrap_up));
  agent->itinerary() = std::move(trip);

  auto id = platform.launch(std::move(agent));
  if (!id.is_ok()) {
    std::cerr << "launch failed: " << id.status() << "\n";
    return 1;
  }
  platform.run_until_finished(id.value());
  sim.run();  // drain trailing commit acknowledgements for the tally below

  const auto& outcome = platform.outcome(id.value());
  auto fin = platform.decode(outcome.final_agent);
  const auto cash = fin->data().weak("cash").as_int();
  std::cout << "\n--- summary ---\n"
            << "agent state: "
            << (outcome.state == agent::AgentOutcome::State::done ? "done"
                                                                  : "failed")
            << "\ncompensation transactions committed: "
            << platform.spans().count(EventKind::comp_commit)
            << "\ncash: " << cash
            << " (2000 - 800 flight - 450 hotel - 150 guide"
               " + (150-15) refund - 120 museum = 615)\n";
  const bool ok = outcome.state == agent::AgentOutcome::State::done &&
                  cash == 615 &&
                  fin->data().weak("bookings").as_list().size() == 3;
  return ok ? 0 : 1;
}
