// Systems-management agent: the information-gathering workload.
//
// The agent sweeps a fleet of nodes, reading inventory data from each
// node's directory service into a *strongly reversible* result vector.
// Pure reads need no compensating operations at all, so with the optimized
// rollback algorithm (Sec. 4.4.1) a rollback of the whole sweep requires
// ZERO agent transfers: the strongly reversible results are restored from
// the savepoint image wherever the agent happens to be.
//
// The scenario: mid-sweep the agent discovers the fleet config generation
// changed under it (an inconsistent snapshot), rolls the sweep back and
// re-collects against the new generation.
#include <iostream>
#include <memory>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "agent/platform.h"
#include "agent/step_context.h"
#include "net/network.h"
#include "resource/directory.h"
#include "sim/simulator.h"

using namespace mar;

namespace {

serial::Value kv(
    std::initializer_list<std::pair<std::string, serial::Value>> pairs) {
  serial::Value v = serial::Value::empty_map();
  for (auto& [k, val] : pairs) v.set(k, val);
  return v;
}

class InventoryAgent final : public agent::Agent {
 public:
  InventoryAgent() {
    data().declare_strong("inventory", serial::Value::empty_list());
    data().declare_strong("generation", std::int64_t{-1});
  }

  std::string type_name() const override { return "inventory"; }

  void run_step(const std::string& step, agent::StepContext& ctx) override {
    if (step != "scan") return;
    auto gen = ctx.invoke("dir", "lookup", kv({{"key", "config.gen"}}));
    auto host = ctx.invoke("dir", "lookup", kv({{"key", "host.info"}}));
    if (!gen.is_ok() || !host.is_ok()) return;
    const auto generation = gen.value().at("value").as_int();

    auto& seen_gen = data().strong("generation");
    if (seen_gen.as_int() < 0) {
      seen_gen = generation;
    } else if (seen_gen.as_int() != generation) {
      // Inconsistent snapshot: config changed mid-sweep. Restart the
      // sweep — restoring the strongly reversible inventory needs no
      // compensating operations (nothing was written anywhere).
      std::cout << "[agent] N" << ctx.node().value() << ": generation "
                << generation << " != snapshot " << seen_gen.as_int()
                << " — rolling the sweep back\n";
      ctx.request_rollback_sub_itinerary();
      return;
    }
    data().strong("inventory")
        .push_back(kv({{"node", static_cast<std::int64_t>(ctx.node().value())},
                       {"info", host.value().at("value")},
                       {"gen", generation}}));
  }
};

}  // namespace

int main() {
  sim::Simulator sim;
  net::Network net(sim);
  agent::PlatformConfig config;
  config.strategy = agent::RollbackStrategy::optimized;
  agent::Platform platform(sim, net, config);

  constexpr int kFleet = 8;
  for (std::uint32_t i = 1; i <= kFleet; ++i) {
    auto& node = platform.add_node(NodeId(i));
    node.resources().add_resource("dir",
                                  std::make_unique<resource::Directory>());
    auto& rm = node.resources();
    auto state = rm.committed_state("dir");
    state.as_map().at("entries").set("config.gen", std::int64_t{1});
    state.as_map().at("entries").set(
        "host.info", kv({{"cpus", std::int64_t{4 + i % 3}},
                         {"ram_gb", std::int64_t{64}}}));
    rm.poke_state("dir", std::move(state));
  }

  // A config push lands on every node while the agent is mid-sweep: nodes
  // the agent has not visited yet will report generation 2.
  sim.schedule_at(8'000, [&] {
    for (std::uint32_t i = 1; i <= kFleet; ++i) {
      auto& rm = platform.node(NodeId(i)).resources();
      auto state = rm.committed_state("dir");
      state.as_map().at("entries").set("config.gen", std::int64_t{2});
      rm.poke_state("dir", std::move(state));
    }
    std::cout << "[world] config generation bumped to 2 on all nodes\n";
  });

  platform.agent_types().register_type<InventoryAgent>("inventory");

  auto agent = std::make_unique<InventoryAgent>();
  agent::Itinerary sweep;
  for (std::uint32_t i = 1; i <= kFleet; ++i) sweep.step("scan", NodeId(i));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(sweep));
  agent->itinerary() = std::move(main_itinerary);

  auto id = platform.launch(std::move(agent));
  if (!id.is_ok()) {
    std::cerr << "launch failed: " << id.status() << "\n";
    return 1;
  }
  platform.run_until_finished(id.value());

  const auto& outcome = platform.outcome(id.value());
  auto fin = platform.decode(outcome.final_agent);
  const auto& inv = fin->data().strong("inventory").as_list();
  std::cout << "\n--- result ---\n"
            << "inventory entries: " << inv.size() << " (all generation "
            << fin->data().strong("generation").as_int() << ")\n"
            << "sweep rollbacks: "
            << platform.spans().count(EventKind::rollback_done)
            << "\n"
            << "agent transfers during rollback: "
            << platform.rollback_transfers()
            << " (optimized algorithm, read-only steps)\n";
  for (const auto& e : inv) {
    std::cout << "  N" << e.at("node").as_int() << " gen "
              << e.at("gen").as_int() << " cpus "
              << e.at("info").at("cpus").as_int() << "\n";
  }
  return outcome.state == agent::AgentOutcome::State::done ? 0 : 1;
}
