// Figure 1 reproduction: the execution model of the exactly-once protocol.
//
// An agent executes steps i..i+3, one per node. For every step the trace
// shows the step transaction T_i on node N_i and the stable agent state
// A_{i+1} moving to the next node's input queue at commit — the structure
// of the paper's Fig. 1, here as an executable, checked timeline.
#include <iostream>

#include "common.h"

using namespace mar;

int main() {
  agent::PlatformConfig config;
  config.discard_log_on_top_level = false;  // keep A_i sizes comparable
  harness::TestWorld w(config, /*node_count=*/4, /*seed=*/1);
  harness::register_workload(w.platform);
  for (int n = 1; n <= 4; ++n) {
    w.publish(n, "info", serial::Value("resource state R" + std::to_string(n)));
  }

  auto agent = std::make_unique<harness::WorkloadAgent>();
  agent::Itinerary sub;
  for (int n = 1; n <= 4; ++n) sub.step("collect", harness::TestWorld::n(n));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(sub));
  agent->itinerary() = std::move(main_itinerary);

  auto id = w.platform.launch(std::move(agent));
  w.platform.run_until_finished(id.value());

  std::cout << "=== Fig. 1: execution of an agent (steps i .. i+3) ===\n\n";
  w.platform.spans().print(std::cout);

  std::cout << "\n--- step timeline ---\n";
  std::cout << "step  node  T_begin[us]  T_commit[us]  A_i+1 -> next queue\n";
  const auto begins = w.platform.spans().of_kind(EventKind::step_begin);
  const auto commits = w.platform.spans().of_kind(EventKind::step_commit);
  const auto migrates = w.platform.spans().of_kind(EventKind::migrate);
  for (std::size_t i = 0; i < begins.size(); ++i) {
    std::cout << "T_" << i << "   N" << begins[i].node << "    "
              << begins[i].begin_us << "          "
              << (i < commits.size() ? std::to_string(commits[i].begin_us)
                                     : "-")
              << "          "
              << (i < migrates.size() ? migrates[i].note() : "(final state)")
              << "\n";
  }
  const bool ok =
      w.platform.outcome(id.value()).state == agent::AgentOutcome::State::done &&
      begins.size() == 4 && migrates.size() == 3;
  std::cout << "\ncheck: 4 step transactions, 3 stable-queue transfers -> "
            << (ok ? "OK" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}
