// Figure 3 / Figure 4 reproduction: partial rollback with the basic
// mechanism.
//
// Steps i..i+2 commit on N1..N3; the rollback is initiated during step
// i+3 on N4 and targets the savepoint before step i. The trace must show
// the agent moving BACK along its path (N3, N2, N1), one compensation
// transaction per node, with compensating operations in reverse order,
// and the strongly reversible objects restored only at the end.
#include <iostream>

#include "common.h"

using namespace mar;

int main() {
  agent::PlatformConfig config;
  config.strategy = agent::RollbackStrategy::basic;
  harness::TestWorld w(config, /*node_count=*/4, /*seed=*/1);
  harness::register_workload(w.platform);

  auto agent = std::make_unique<harness::WorkloadAgent>();
  agent::Itinerary sub;
  for (int n = 1; n <= 3; ++n) {
    sub.step("touch_split", harness::TestWorld::n(n));
  }
  sub.step("noop", harness::TestWorld::n(4));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(sub));
  agent->itinerary() = std::move(main_itinerary);
  agent->set_trigger("noop", 4, "sub", 0);

  auto id = w.platform.launch(std::move(agent));
  w.platform.run_until_finished(id.value());

  std::cout << "=== Fig. 3: partial rollback with the basic mechanism ===\n\n";
  w.platform.spans().print(std::cout);

  // Checks: compensation transactions visited N3, N2, N1 in that order;
  // restore happened exactly once, strictly after all compensations.
  const auto comps = w.platform.spans().of_kind(EventKind::comp_begin);
  std::vector<std::uint32_t> comp_nodes;
  for (const auto& e : comps) comp_nodes.push_back(e.node);
  const auto restores = w.platform.spans().of_kind(EventKind::restore);
  bool ok = w.platform.outcome(id.value()).state ==
            agent::AgentOutcome::State::done;
  ok = ok && comp_nodes.size() >= 3;
  if (ok) {
    // First three compensation transactions: reverse path N3 N2 N1.
    ok = comp_nodes[0] == 3 && comp_nodes[1] == 2 && comp_nodes[2] == 1;
  }
  ok = ok && restores.size() == 1;
  if (ok) {
    for (const auto& c : comps) ok = ok && c.begin_us <= restores[0].begin_us;
  }
  std::cout << "\ncheck: CTs ran on N3,N2,N1 (reverse path), single restore "
               "at the end -> "
            << (ok ? "OK" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}
