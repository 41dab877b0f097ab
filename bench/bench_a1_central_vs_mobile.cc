// Ablation A1 — mobile agent vs ConTract-style central execution (Sec. 5).
//
// The paper positions its mechanism against the ConTract model, whose
// scripts are not mobile: a central manager reaches every resource by RPC.
// This ablation runs the SAME logical workload both ways over the same
// substrate — K interactions with each of 6 nodes' directories — and
// sweeps the interactions-per-node count.
//
// Expected shape (the mobile-agent thesis, and ref [16]'s model): the
// central manager pays a round trip per interaction, the agent pays one
// transfer per node; with few interactions per node RPC is competitive,
// with many the agent wins, and the gap widens with per-interaction
// payload size.
#include <iomanip>
#include <iostream>

#include "common.h"
#include "contract/contract.h"

using namespace mar;

namespace {

struct Run {
  sim::TimeUs total_us = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t messages = 0;
  bool ok = false;
};

constexpr int kNodes = 6;

Run run_central(int per_node, std::int64_t payload) {
  harness::TestWorld w(agent::PlatformConfig{}, kNodes, /*seed=*/3);
  harness::register_workload(w.platform);
  storage::StableStorage stable;
  w.net.add_node(NodeId(100));
  contract::ContractManager manager(NodeId(100), w.sim, w.net, stable,
                                    w.platform.compensations());

  std::vector<contract::ScriptStep> script;
  for (int n = 1; n <= kNodes; ++n) {
    for (int i = 0; i < per_node; ++i) {
      contract::ScriptStep s;
      s.node = harness::TestWorld::n(n);
      s.resource = "dir";
      s.op = "publish";
      serial::Value p = serial::Value::empty_map();
      p.set("key", "k" + std::to_string(n) + "-" + std::to_string(i));
      p.set("value", serial::Value(serial::Bytes(
                         static_cast<std::size_t>(payload), std::uint8_t{1})));
      s.params = std::move(p);
      script.push_back(std::move(s));
    }
  }
  Run run;
  bool done = false;
  manager.run(std::move(script), [&](Status s) {
    done = true;
    run.ok = s.is_ok();
  });
  w.sim.run_while_pending([&] { return done; });
  run.total_us = w.sim.now();
  run.wire_bytes = w.net.stats().bytes_sent;
  run.messages = w.net.stats().messages_sent;
  return run;
}

Run run_mobile(int per_node, std::int64_t payload) {
  harness::TestWorld w(agent::PlatformConfig{}, kNodes, /*seed=*/3);
  harness::register_workload(w.platform);
  auto agent = std::make_unique<harness::WorkloadAgent>();
  agent::Itinerary sub;
  // One step per node; each step performs `per_node` local publishes.
  for (int n = 1; n <= kNodes; ++n) {
    for (int i = 0; i < per_node; ++i) {
      sub.step("touch_plain", harness::TestWorld::n(n));
    }
  }
  agent::Itinerary main;
  main.sub(std::move(sub));
  agent->itinerary() = std::move(main);
  agent->set_config("param_bytes", payload);
  auto id = w.platform.launch(std::move(agent));
  Run run;
  if (!id.is_ok()) return run;
  run.ok = w.platform.run_until_finished(id.value()) &&
           w.platform.outcome(id.value()).state ==
               agent::AgentOutcome::State::done;
  run.total_us = w.platform.outcome(id.value()).finished_at;
  run.wire_bytes = w.net.stats().bytes_sent;
  run.messages = w.net.stats().messages_sent;
  return run;
}

}  // namespace

int main() {
  std::cout << "=== A1: central (ConTract-style) vs mobile-agent execution "
               "===\n"
            << "(6 nodes, K publishes of `payload` bytes per node)\n\n";
  std::cout << "payload  K/node  central[ms]  mobile[ms]  central-msgs  "
               "mobile-msgs  winner\n";
  std::cout << "------------------------------------------------------------"
               "--------\n";
  bool shape_ok = true;
  for (const std::int64_t payload : {64, 1024}) {
    double first_ratio = 0;
    double last_ratio = 0;
    for (const int k : {1, 4, 16}) {
      const auto central = run_central(k, payload);
      const auto mobile = run_mobile(k, payload);
      shape_ok = shape_ok && central.ok && mobile.ok;
      const double ratio = static_cast<double>(central.total_us) /
                           static_cast<double>(mobile.total_us);
      if (k == 1) first_ratio = ratio;
      last_ratio = ratio;
      std::cout << std::setw(7) << payload << "  " << std::setw(6) << k
                << "  " << std::setw(11) << std::fixed
                << std::setprecision(2) << central.total_us / 1000.0 << "  "
                << std::setw(10) << mobile.total_us / 1000.0 << "  "
                << std::setw(12) << central.messages << "  " << std::setw(11)
                << mobile.messages << "  "
                << (central.total_us < mobile.total_us ? "central"
                                                       : "mobile")
                << "\n";
    }
    // The agent's relative advantage must grow with interactions per node.
    shape_ok = shape_ok && last_ratio > first_ratio;
    std::cout << "\n";
  }
  std::cout << "check: central/mobile time ratio grows with interactions "
               "per node (mobility amortizes) -> "
            << (shape_ok ? "OK" : "MISMATCH") << "\n";
  return shape_ok ? 0 : 1;
}
