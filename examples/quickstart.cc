// Quickstart: a mobile agent that visits three nodes, withdraws money on
// two of them, then decides its strategy was wrong and partially rolls
// back — compensating the committed steps and restarting from the
// savepoint.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "agent/platform.h"
#include "agent/step_context.h"
#include "net/network.h"
#include "resource/bank.h"
#include "sim/simulator.h"

using namespace mar;

// An agent keeps ALL of its state in the DataSpace: strongly reversible
// slots are restored from savepoint images by the system; weakly
// reversible slots are fixed up by the compensating operations you log.
class TravelAgent final : public agent::Agent {
 public:
  TravelAgent() {
    data().declare_strong("visited", serial::Value::empty_list());
    data().declare_weak("budget", std::int64_t{0});
    data().declare_weak("tries", std::int64_t{0});
  }

  std::string type_name() const override { return "travel"; }

  void run_step(const std::string& step, agent::StepContext& ctx) override {
    data().strong("visited").push_back(
        static_cast<std::int64_t>(ctx.node().value()));

    if (step == "withdraw") {
      // "tries" counts withdraw executions and is deliberately NOT
      // compensated: it is the agent's experience and survives rollback —
      // without it the agent would request the same rollback forever.
      // (State updated in the step that *requests* the rollback would be
      // lost with that step's abort.)
      data().weak("tries") = data().weak("tries").as_int() + 1;
      serial::Value p = serial::Value::empty_map();
      p.set("account", "travel-fund");
      p.set("amount", std::int64_t{100});
      auto r = ctx.invoke("bank", "withdraw", p);
      if (!r.is_ok()) return;
      data().weak("budget") = data().weak("budget").as_int() + 100;
      // Log how to undo this step if the agent later rolls back:
      //  - put the money back (resource compensation entry), and
      //  - shrink the budget counter (agent compensation entry).
      ctx.log_resource_compensation("bank", "undo.withdraw", p);
      serial::Value ap = serial::Value::empty_map();
      ap.set("amount", std::int64_t{100});
      ctx.log_agent_compensation("undo.budget", ap);
      return;
    }

    if (step == "decide") {
      if (data().weak("tries").as_int() == 2) {
        // First time here: the plan looks wrong — roll back the whole
        // sub-itinerary. The platform aborts this step, compensates the
        // committed withdraws on their nodes, restores "visited" from the
        // savepoint image and restarts the sub-itinerary.
        std::cout << "[agent] strategy failed, requesting rollback\n";
        ctx.request_rollback_sub_itinerary();
      }
      return;
    }
  }
};

int main() {
  sim::Simulator sim;
  net::Network net(sim);
  agent::Platform platform(sim, net);

  // Three nodes; the banks on N1 and N2 hold the travel fund.
  for (std::uint32_t i = 1; i <= 3; ++i) {
    auto& node = platform.add_node(NodeId(i));
    node.resources().add_resource("bank",
                                  std::make_unique<resource::Bank>());
  }
  for (std::uint32_t i = 1; i <= 2; ++i) {
    auto& rm = platform.node(NodeId(i)).resources();
    auto state = rm.committed_state("bank");
    serial::Value acc = serial::Value::empty_map();
    acc.set("balance", std::int64_t{500});
    acc.set("overdraft", false);
    state.as_map().at("accounts").set("travel-fund", std::move(acc));
    rm.poke_state("bank", std::move(state));
  }

  // Register the agent type and its compensating operations everywhere.
  platform.agent_types().register_type<TravelAgent>("travel");
  platform.compensations().register_op(
      "undo.withdraw", [](rollback::CompensationContext& ctx) {
        serial::Value p = serial::Value::empty_map();
        p.set("account", ctx.params().at("account"));
        p.set("amount", ctx.params().at("amount"));
        return ctx.invoke("bank", "deposit", p).status();
      });
  platform.compensations().register_op(
      "undo.budget", [](rollback::CompensationContext& ctx) {
        auto& budget = ctx.weak("budget");
        budget = budget.as_int() - ctx.params().at("amount").as_int();
        return Status::ok();
      });

  // Itinerary: one sub-itinerary (= unit of rollback) over three nodes.
  auto agent = std::make_unique<TravelAgent>();
  agent::Itinerary sub;
  sub.step("withdraw", NodeId(1))
      .step("withdraw", NodeId(2))
      .step("decide", NodeId(3));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(sub));
  agent->itinerary() = std::move(main_itinerary);

  auto id = platform.launch(std::move(agent));
  if (!id.is_ok()) {
    std::cerr << "launch failed: " << id.status() << "\n";
    return 1;
  }
  platform.run_until_finished(id.value());

  std::cout << "\n--- execution trace ---\n";
  platform.spans().print(std::cout);

  const auto& outcome = platform.outcome(id.value());
  auto final_agent = platform.decode(outcome.final_agent);
  std::cout << "\n--- result ---\n";
  std::cout << "agent state: "
            << (outcome.state == agent::AgentOutcome::State::done ? "done"
                                                                  : "failed")
            << " at node N" << outcome.final_node << " after "
            << outcome.finished_at / 1000 << " ms (simulated)\n";
  std::cout << "budget: " << final_agent->data().weak("budget").as_int()
            << " (withdrawn twice, compensated twice, withdrawn twice)\n";
  std::cout << "bank N1: "
            << resource::Bank::balance_in(
                   platform.node(NodeId(1)).resources().committed_state(
                       "bank"),
                   "travel-fund")
            << ", bank N2: "
            << resource::Bank::balance_in(
                   platform.node(NodeId(2)).resources().committed_state(
                       "bank"),
                   "travel-fund")
            << "\n";
  return 0;
}
