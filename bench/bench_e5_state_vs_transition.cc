// Experiment E5 — state vs transition logging of savepoints (Sec. 4.2).
//
// Strongly reversible objects can be savepointed as full images (state
// logging) or as deltas between adjacent savepoints (transition logging).
// The agent maintains a register file of `entries` strong blobs and
// mutates `k` of them per step, establishing a savepoint after every step;
// at the end it rolls back several steps so the restore path (image copy
// vs delta-chain replay) is exercised and verified.
//
// Expected shape: transition logging shrinks savepoint bytes roughly by
// the mutated fraction k/entries; at k == entries the two modes converge
// (deltas degrade to full content). Restores agree exactly in both modes.
#include <iomanip>
#include <iostream>

#include "common.h"

using namespace mar;

namespace {

struct Row {
  std::uint64_t savepoint_bytes = 0;  ///< SP entries in the final log
  std::uint64_t stable_bytes = 0;
  bool rollback_ok = false;
};

Row measure(agent::LoggingMode mode, std::int64_t entries,
            std::int64_t mutate) {
  agent::PlatformConfig config;
  config.logging = mode;
  config.discard_log_on_top_level = false;  // keep SPs for measurement
  constexpr int kSteps = 8;
  harness::TestWorld w(config, /*node_count=*/3, /*seed=*/17);
  harness::register_workload(w.platform);

  auto agent = std::make_unique<harness::WorkloadAgent>();
  agent::Itinerary sub;
  for (int i = 0; i < kSteps; ++i) {
    sub.step("mutate_strong", harness::TestWorld::n(1 + i % 3));
  }
  sub.step("noop", harness::TestWorld::n(3));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(sub));
  agent->itinerary() = std::move(main_itinerary);
  // Roll back 3 steps: target the ad-hoc savepoint established after step
  // 5 (id 6: the launch sub-itinerary savepoint is id 1, then one per
  // step). Re-execution then shifts the visit counter, so the trigger
  // cannot refire.
  agent->set_trigger("noop", kSteps + 1, "explicit", 6);
  agent->set_config("sp_every_step", 1);
  agent->set_config("strong_entries", entries);
  agent->set_config("mutate_count", mutate);
  agent->set_config("strong_bytes", 256);

  auto id = w.platform.launch(std::move(agent));
  w.platform.run_until_finished(id.value());

  Row row;
  row.rollback_ok = w.platform.outcome(id.value()).state ==
                        agent::AgentOutcome::State::done &&
                    w.platform.spans().count(EventKind::restore) == 1;
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  for (const auto& e : fin->log().entries()) {
    if (e.is_savepoint()) row.savepoint_bytes += e.byte_size();
  }
  for (const auto node : w.net.node_ids()) {
    row.stable_bytes += w.platform.node(node).storage().stats().bytes_written;
  }
  return row;
}

}  // namespace

int main() {
  std::cout << "=== E5: state vs transition logging of savepoints ===\n"
            << "(8 steps, savepoint per step, 32 strong blobs x 256 B, "
               "k mutated per step, 3-step rollback at the end)\n\n";
  std::cout << "k/32  mode        savepoint-bytes  stable-bytes  restore\n";
  std::cout << "------------------------------------------------------\n";
  bool shape_ok = true;
  for (const std::int64_t mutate : {1, 4, 16, 32}) {
    const auto state = measure(agent::LoggingMode::state, 32, mutate);
    const auto transition = measure(agent::LoggingMode::transition, 32,
                                    mutate);
    const auto print = [&](const char* name, const Row& r) {
      std::cout << std::setw(4) << mutate << "  " << std::left
                << std::setw(10) << name << std::right << std::setw(15)
                << r.savepoint_bytes << "  " << std::setw(12)
                << r.stable_bytes << "  "
                << (r.rollback_ok ? "OK" : "FAIL") << "\n";
      shape_ok = shape_ok && r.rollback_ok;
    };
    print("state", state);
    print("transition", transition);
    std::cout << "\n";
    if (mutate == 1) {
      shape_ok = shape_ok &&
                 transition.savepoint_bytes * 4 < state.savepoint_bytes;
    }
    shape_ok = shape_ok &&
               transition.savepoint_bytes <= state.savepoint_bytes * 11 / 10;
  }
  std::cout << "check: transition << state at small mutation fractions, "
               "converging at full mutation; restores verified -> "
            << (shape_ok ? "OK" : "MISMATCH") << "\n";
  return shape_ok ? 0 : 1;
}
