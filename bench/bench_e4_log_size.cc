// Experiment E4 — log size: itinerary integration (Sec. 4.4.2).
//
// Compares the rollback-log bytes an agent carries per migration under
// four savepoint policies:
//   per-step     an ad-hoc savepoint after every step (no GC, no discard)
//   itin         automatic sub-itinerary savepoints, no GC, no discard
//   itin+gc      + savepoint entries GC'd when a sub-itinerary completes
//   itin+gc+disc + the whole log discarded at top-level sub completions
//
// Workload: M top-level sub-itineraries of S steps each; every step logs
// compensating operations and appends to the strongly reversible state, so
// savepoint images grow as the agent works.
//
// Expected shape: per-step grows fastest (one image per step); itinerary
// savepoints grow with per-step op entries plus one image per sub; GC
// trims completed subs' images; discard resets the log at every top-level
// boundary, bounding the carried size by one sub-itinerary's worth.
#include <iomanip>
#include <iostream>

#include "common.h"

using namespace mar;

namespace {

struct Row {
  std::uint64_t avg_migration_bytes = 0;
  std::uint64_t max_migration_bytes = 0;
  std::uint64_t final_log_bytes = 0;
  bool ok = false;
};

Row measure(bool per_step_sps, bool itinerary_sps, bool gc, bool discard,
            int subs, int steps_per_sub, std::int64_t strong_bytes) {
  agent::PlatformConfig config;
  config.itinerary_savepoints = itinerary_sps;
  config.gc_savepoints = gc;
  config.discard_log_on_top_level = discard;
  const int nodes = 4;
  harness::TestWorld w(config, nodes, /*seed=*/11);
  harness::register_workload(w.platform);

  auto agent = std::make_unique<harness::WorkloadAgent>();
  agent::Itinerary main_itinerary;
  for (int m = 0; m < subs; ++m) {
    agent::Itinerary sub;
    for (int s = 0; s < steps_per_sub; ++s) {
      sub.step("touch_split",
               harness::TestWorld::n(1 + (m * steps_per_sub + s) % nodes));
      sub.step("grow_strong",
               harness::TestWorld::n(1 + (m * steps_per_sub + s) % nodes));
    }
    main_itinerary.sub(std::move(sub));
  }
  agent->itinerary() = std::move(main_itinerary);
  agent->set_config("param_bytes", 32);
  agent->set_config("strong_bytes", strong_bytes);
  if (per_step_sps) agent->set_config("sp_every_step", 1);

  auto id = w.platform.launch(std::move(agent));
  w.platform.run_until_finished(id.value());

  Row row;
  row.ok = w.platform.outcome(id.value()).state ==
           agent::AgentOutcome::State::done;
  // Forward step migrations carry their payload size (value2).
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  for (const auto& e : w.platform.spans().of_kind(EventKind::migrate)) {
    if (e.code != static_cast<std::uint8_t>(MigrateCause::step)) continue;
    sum += e.value2;
    ++count;
    row.max_migration_bytes = std::max(row.max_migration_bytes, e.value2);
  }
  row.avg_migration_bytes = count > 0 ? sum / count : 0;
  auto fin = w.platform.decode(w.platform.outcome(id.value()).final_agent);
  row.final_log_bytes = fin->log().byte_size();
  return row;
}

}  // namespace

int main() {
  constexpr int kSubs = 4;
  constexpr int kSteps = 4;
  std::cout << "=== E4: rollback-log size vs savepoint policy ===\n"
            << "(" << kSubs << " top-level sub-itineraries x " << kSteps
            << " steps, strong state grows per step)\n\n";
  std::cout << "strongB  policy         avg-mig[B]  max-mig[B]  final-log[B]\n";
  std::cout << "-----------------------------------------------------------\n";
  bool shape_ok = true;
  for (const std::int64_t strong : {64, 512, 4096}) {
    Row per_step = measure(true, false, false, false, kSubs, kSteps, strong);
    Row itin = measure(false, true, false, false, kSubs, kSteps, strong);
    Row itin_gc = measure(false, true, true, false, kSubs, kSteps, strong);
    Row full = measure(false, true, true, true, kSubs, kSteps, strong);
    const auto print = [&](const char* name, const Row& r) {
      std::cout << std::setw(6) << strong << "  " << std::left
                << std::setw(13) << name << std::right << std::setw(10)
                << r.avg_migration_bytes << "  " << std::setw(10)
                << r.max_migration_bytes << "  " << std::setw(11)
                << r.final_log_bytes << "\n";
      shape_ok = shape_ok && r.ok;
    };
    print("per-step", per_step);
    print("itin", itin);
    print("itin+gc", itin_gc);
    print("itin+gc+disc", full);
    std::cout << "\n";
    shape_ok = shape_ok &&
               per_step.max_migration_bytes > itin.max_migration_bytes &&
               itin.max_migration_bytes >= itin_gc.max_migration_bytes &&
               itin_gc.max_migration_bytes > full.max_migration_bytes &&
               full.final_log_bytes <= 1;  // an empty log serializes to one byte
  }
  std::cout << "check: per-step > itin >= itin+gc > itin+gc+discard; "
               "discard empties the final log -> "
            << (shape_ok ? "OK" : "MISMATCH") << "\n";
  return shape_ok ? 0 : 1;
}
