// Experiment E3 — ACE ∥ RCE concurrency inside one compensation
// transaction (Sec. 4.4.1).
//
// In the optimized algorithm the resource compensation entries execute on
// the resource node CONCURRENTLY with the agent compensation entries on
// the agent's node. With per-operation service time S, a step with R RCEs
// and A ACEs compensates in ~max(A*S, R*S + round-trip) instead of the
// basic algorithm's (A+R)*S (plus the agent's travel).
//
// Expected shape: the optimized/basic latency ratio approaches
// max(A,R)/(A+R) as S grows (service time dominates the round trip);
// savings are largest for balanced A==R.
#include <iomanip>
#include <iostream>

#include "common.h"

using namespace mar;

namespace {

sim::TimeUs rollback_time(agent::RollbackStrategy strategy,
                          std::int64_t rces, std::int64_t aces,
                          sim::TimeUs service) {
  agent::PlatformConfig config;
  config.strategy = strategy;
  config.comp_op_service_us = service;
  harness::TestWorld w(config, /*node_count=*/4, /*seed=*/5);
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
  agent->set_config("rce_per_step", rces);
  agent->set_config("ace_per_step", aces);

  auto id = w.platform.launch(std::move(agent));
  const bool initiated = w.sim.run_while_pending(
      [&] { return w.platform.spans().count(EventKind::rollback_begin) > 0; });
  if (!initiated) return 0;
  const auto start = w.sim.now();
  const bool done = w.sim.run_while_pending(
      [&] { return w.platform.spans().count(EventKind::rollback_done) > 0; });
  if (!done) return 0;
  return w.sim.now() - start;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::BenchReport report("e3_concurrency");
  std::cout << "=== E3: concurrent execution of ACE and RCE lists ===\n"
            << "(3 compensated steps; rollback latency vs per-op service "
               "time)\n\n";
  std::cout << "RCEs  ACEs  service[us]  basic[ms]  optimized[ms]  speedup\n";
  std::cout << "-------------------------------------------------------\n";
  bool shape_ok = true;
  for (const auto& [rces, aces] :
       {std::pair<std::int64_t, std::int64_t>{4, 4},
        {8, 2},
        {2, 8},
        {8, 8}}) {
    for (const sim::TimeUs service : {200u, 2'000u, 20'000u}) {
      const auto basic = rollback_time(agent::RollbackStrategy::basic, rces,
                                       aces, service);
      const auto opt = rollback_time(agent::RollbackStrategy::optimized,
                                     rces, aces, service);
      const double speedup =
          opt > 0 ? static_cast<double>(basic) / static_cast<double>(opt)
                  : 0.0;
      std::cout << std::setw(4) << rces << "  " << std::setw(4) << aces
                << "  " << std::setw(11) << service << "  " << std::setw(9)
                << std::fixed << std::setprecision(2) << basic / 1000.0
                << "  " << std::setw(13) << opt / 1000.0 << "  "
                << std::setw(6) << std::setprecision(2) << speedup << "x\n";
      report.row()
          .set("rces", rces)
          .set("aces", aces)
          .set("service_us", static_cast<std::uint64_t>(service))
          .set("basic_us", basic)
          .set("optimized_us", opt)
          .set("speedup", speedup);
      if (basic == 0 || opt == 0) shape_ok = false;
      // With large service times the overlap must show: optimized strictly
      // faster than basic for balanced lists.
      if (service == 20'000u) shape_ok = shape_ok && opt < basic;
    }
  }
  std::cout << "\ncheck: optimized < basic at service-dominated settings -> "
            << (shape_ok ? "OK" : "MISMATCH") << "\n";
  report.set_ok(shape_ok);
  if (!json_path.empty() && !report.write_file(json_path)) return 2;
  return shape_ok ? 0 : 1;
}
