// Experiment A8 — crash-recovery cost: replayed bytes and recovery time.
//
// The exactly-once protocol keeps every agent in stable storage between
// steps, so a node restart must rebuild the record read path before it
// can re-offer queued work. Without checkpoints, recovery replays the
// ENTIRE retained record log — work that grows without bound with agent
// age between full-image compactions. Fuzzy checkpoints of the segmented
// record log (src/storage/segment_log.h) bound it: recovery replays only
// the CRC32-framed log since the last completed checkpoint.
//
// This bench ages a fleet of spend_logged agents to ~8/32/128 committed
// steps, then crashes and immediately recovers their node, measuring
//   * recovery_replayed_bytes — bytes the recovery scan replayed, and
//   * recovery_ms             — wall-clock of the crash->up transition,
// with checkpoints off (mode no_checkpoint: the unbounded full-replay
// envelope) vs armed (mode segmented). Expected shape: no_checkpoint
// replayed bytes grow >= 1.5x from the youngest to the oldest age;
// checkpointed replayed bytes stay bounded (<= 1.3x); and after recovery
// every agent still completes with exactly-once intact (visits == steps).
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

using namespace mar;
using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;

namespace {

constexpr std::int64_t kParamBytes = 128;

struct RunResult {
  bool ok = false;
  std::uint64_t replayed_bytes = 0;
  std::uint64_t replayed_segments = 0;
  std::uint64_t checkpoints = 0;
  double recovery_ms = 0;
};

/// Age `fleet` agents to ~`age` committed steps each on one node, crash
/// that node, time the recovery, then run the fleet to completion and
/// verify exactly-once. Deterministic in everything except wall time.
RunResult age_then_recover(int fleet, int age, bool checkpoints) {
  agent::PlatformConfig cfg;
  cfg.incremental_commit = true;
  // The aging sweep measures recovery vs age, so push the orthogonal
  // compaction policy out of the window — compaction is exactly the
  // mitigation whose absence the unbounded envelope exposes.
  cfg.compaction_interval_steps = 4096;
  cfg.discard_log_on_top_level = false;
  cfg.segment_bytes = 4096;
  // Checkpoints are the point of the segmented cell: a fuzzy snapshot
  // roughly every 4 KiB of record-log writes bounds replay independent
  // of age.
  cfg.checkpoint_interval_bytes = checkpoints ? 4096 : 0;
  TestWorld w(cfg, /*node_count=*/1, /*seed=*/5);
  harness::register_workload(w.platform);

  std::vector<AgentId> ids;
  ids.reserve(static_cast<std::size_t>(fleet));
  for (int a = 0; a < fleet; ++a) {
    auto ag = std::make_unique<harness::WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < age + 4; ++s) {
      tour.step("spend_logged", TestWorld::n(1));
    }
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    ag->set_config("param_bytes", kParamBytes);
    auto r = w.platform.launch(std::move(ag));
    MAR_CHECK(r.is_ok());
    ids.push_back(r.value());
  }

  // Age the fleet: each locally-committed incremental step appends one
  // delta, so record_appends ~ committed steps across the fleet.
  auto& storage = w.platform.node(TestWorld::n(1)).storage();
  const auto target =
      static_cast<std::uint64_t>(fleet) * static_cast<std::uint64_t>(age);
  const bool aged = w.sim.run_while_pending(
      [&] { return storage.stats().record_appends.load() >= target; });

  // Crash and immediately recover: the timed window is the recovery scan
  // (checkpoint load + log replay) plus the tx-layer recovery pass.
  auto& rt = w.platform.node(TestWorld::n(1));
  const auto t0 = std::chrono::steady_clock::now();
  rt.on_node_state(false);
  rt.on_node_state(true);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult res;
  res.recovery_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  res.replayed_bytes = storage.stats().recovery_replayed_bytes.load();
  res.replayed_segments = storage.stats().recovery_segments.load();
  res.checkpoints = storage.stats().checkpoints_completed.load();

  // Exactly-once must survive the crash: every agent completes with one
  // visit per itinerary step.
  res.ok = aged && w.platform.run_until_all_finished(ids);
  for (const auto id : ids) {
    if (!res.ok) break;
    const auto& out = w.platform.outcome(id);
    res.ok = out.state == AgentOutcome::State::done;
    if (!res.ok) break;
    auto fin = w.platform.decode(out.final_agent);
    res.ok = fin->data().weak("visits").as_int() == age + 4;
  }
  return res;
}

struct Cell {
  RunResult r;
  int age = 0;
  int fleet = 0;
  bool checkpoints = false;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::BenchReport report("a8_recovery");

  const bool quick = std::getenv("MAR_BENCH_QUICK") != nullptr;
  const std::vector<int> ages = quick ? std::vector<int>{8, 32}
                                      : std::vector<int>{8, 32, 128};
  const std::vector<int> fleets = quick ? std::vector<int>{4}
                                        : std::vector<int>{4, 16};
  // Wall-clock gating only in the full preset (baselines come from a
  // quiet machine; CI runners are contended). Byte shapes always gate.
  const bool gate_on_wall_clock = !quick;

  std::cout << "=== A8: crash-recovery cost (segmented log + checkpoints "
               "vs full replay) ===\n"
            << "(record-log bytes replayed and wall-clock of one node "
               "recovery\n vs fleet size x agent age; param "
            << kParamBytes << " B)\n\n";
  std::cout
      << "mode          age  fleet  replayed[B]  segs  ckpts  recovery[ms]\n";
  std::cout
      << "---------------------------------------------------------------\n";

  bool shape_ok = true;
  std::vector<Cell> cells;
  for (const bool checkpoints : {false, true}) {
    for (const int fleet : fleets) {
      for (const int age : ages) {
        Cell c;
        c.r = age_then_recover(fleet, age, checkpoints);
        c.age = age;
        c.fleet = fleet;
        c.checkpoints = checkpoints;
        cells.push_back(c);
        shape_ok = shape_ok && c.r.ok;
        std::cout << (checkpoints ? "segmented     " : "no_checkpoint ")
                  << std::setw(3) << age << "  " << std::setw(5) << fleet
                  << "  " << std::setw(11) << c.r.replayed_bytes << "  "
                  << std::setw(4) << c.r.replayed_segments << "  "
                  << std::setw(5) << c.r.checkpoints << "  " << std::setw(12)
                  << std::fixed << std::setprecision(3) << c.r.recovery_ms
                  << "\n";
        report.row()
            .set("mode", checkpoints ? "segmented" : "no_checkpoint")
            .set("age", age)
            .set("fleet", fleet)
            .set("recovery_replayed_bytes", c.r.replayed_bytes)
            .set("recovery_segments", c.r.replayed_segments)
            .set("checkpoints_completed", c.r.checkpoints)
            .set("recovery_ms", c.r.recovery_ms)
            .set("ok", c.r.ok);
      }
    }
  }

  auto cell_of = [&cells](int age, int fleet,
                          bool checkpoints) -> const Cell& {
    for (const auto& c : cells) {
      if (c.age == age && c.fleet == fleet && c.checkpoints == checkpoints) {
        return c;
      }
    }
    MAR_CHECK_MSG(false, "missing sweep cell");
    return cells.front();
  };

  // Shape checks: checkpoint-free replay grows with age (the unbounded
  // envelope), checkpointed replay stays bounded, and is strictly cheaper
  // than the envelope at the oldest age.
  const int oldest = ages.back();
  std::cout << "\n";
  for (const int fleet : fleets) {
    const auto& full_young = cell_of(ages.front(), fleet, false);
    const auto& full_old = cell_of(oldest, fleet, false);
    const auto& seg_young = cell_of(ages.front(), fleet, true);
    const auto& seg_old = cell_of(oldest, fleet, true);
    const double full_growth =
        static_cast<double>(full_old.r.replayed_bytes) /
        static_cast<double>(full_young.r.replayed_bytes);
    const double seg_growth =
        static_cast<double>(seg_old.r.replayed_bytes) /
        static_cast<double>(seg_young.r.replayed_bytes);
    const bool grows = full_growth >= 1.5;
    const bool bounded = seg_growth <= 1.3;
    const bool cheaper = seg_old.r.replayed_bytes < full_old.r.replayed_bytes;
    const bool checkpointed = seg_old.r.checkpoints > 0;
    // Wall-clock: recovery time has an O(live state) floor no storage
    // scheme removes — re-offering a resident agent decodes its image,
    // and this sweep deliberately lets state grow by deferring
    // compaction — so recovery_ms is NOT flat in age here. The wall
    // assertion is comparative instead: checkpointed recovery (which
    // loads a snapshot, then parses and CRC-checks the frames after it)
    // must stay within a small constant factor of the checkpoint-free
    // full replay at the oldest age, while the deterministic
    // replayed-bytes curves above carry the boundedness claim. Generous
    // factor + absolute floor absorb timer noise.
    const double wall_budget = std::max(1.0, 4.0 * full_old.r.recovery_ms);
    const bool wall_flat =
        !gate_on_wall_clock || seg_old.r.recovery_ms <= wall_budget;
    std::cout << "fleet " << fleet << ": no_checkpoint grows "
              << std::setprecision(2) << full_growth
              << "x, segmented " << seg_growth << "x (ckpts "
              << seg_old.r.checkpoints << "), old-age replay "
              << seg_old.r.replayed_bytes << " vs "
              << full_old.r.replayed_bytes << " B -> "
              << ((grows && bounded && cheaper && checkpointed && wall_flat)
                      ? "OK"
                      : "MISMATCH")
              << "\n";
    shape_ok = shape_ok && grows && bounded && cheaper && checkpointed &&
               wall_flat;
    report.row()
        .set("phase", "check")
        .set("fleet", fleet)
        .set("oldest_age", oldest)
        .set("no_checkpoint_growth", full_growth)
        .set("segmented_growth", seg_growth)
        .set("segmented_old_replayed_bytes", seg_old.r.replayed_bytes)
        .set("no_checkpoint_old_replayed_bytes", full_old.r.replayed_bytes)
        .set("wall_gated", gate_on_wall_clock);
  }

  std::cout << (shape_ok ? "\nshape check: OK\n" : "\nshape check: FAILED\n");
  report.set_ok(shape_ok);
  if (!json_path.empty() && !report.write_file(json_path)) return 2;
  return shape_ok ? 0 : 1;
}
