// Experiment A7 — delta-shipping migrations (src/ship/).
//
// PR 3 made local step commits O(delta); every migration still shipped a
// full agent image, so long-lived (aged) agents paid their whole rollback
// log on every hop. The ShipmentManager's transfer channels ship a base
// image once per (src, dst) pair and only deltas afterwards, with convoy
// batching coalescing the participant-side 2PC syncs of transfers that
// head to the same destination.
//
// This bench sweeps itinerary locality (pair ping-pong vs a 6-node ring)
// x agent age (prior logged steps) x shipping mode, measuring the
// MARGINAL migration cost per agent-hop (two runs, diffed — both
// deterministic), so the one-time channel establishment cost is excluded:
//   * migration bytes/agent-hop (ship.convoy wire bytes),
//   * hops/sec in simulation virtual time (the network-model win);
// plus a convoy-window sweep (participant syncs/agent-hop) and a
// fault-injected bit-identity check of delta vs full-image final state.
//
// Expected shape: full-image bytes/hop grow with age (the log rides every
// hop); delta bytes/hop stay flat (within 1.15x from age 8 to 128) on the
// locality-heavy pair itinerary; convoy window 4 cuts participant
// syncs/hop by at least 2x; and the delta-shipped final agent state is
// bit-identical to the full-image run under injected crashes.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

using namespace mar;
using agent::AgentOutcome;
using agent::Itinerary;
using agent::PlatformConfig;
using harness::TestWorld;

namespace {

constexpr std::int64_t kParamBytes = 64;

/// `age` warm-up steps on N1 (no migrations), then `hops` migrating
/// steps: node_count == 2 ping-pongs N1<->N2 (locality-heavy: every
/// channel is revisited every 2 hops); larger counts walk a ring.
Itinerary course(int age, int hops, int node_count) {
  Itinerary sub;
  for (int s = 0; s < age; ++s) sub.step("spend_logged", TestWorld::n(1));
  for (int h = 0; h < hops; ++h) {
    const int node = node_count == 2 ? (h % 2 == 0 ? 2 : 1)
                                     : (h % node_count) + 1;
    sub.step("spend_logged", TestWorld::n(node));
  }
  Itinerary main_it;
  main_it.sub(std::move(sub));
  return main_it;
}

struct RunResult {
  bool ok = false;
  std::uint64_t convoy_bytes = 0;
  std::uint64_t participant_syncs = 0;
  std::uint64_t coordinator_syncs = 0;
  std::uint64_t pipeline_depth_max = 0;
  std::uint64_t prepare_bytes = 0;  ///< tx.prepare wire bytes (0 = piggybacked)
  std::uint64_t delta_ships = 0;
  sim::TimeUs sim_us = 0;
  serial::Bytes final_agent;  ///< single-agent runs only
  /// Hop latency percentiles (hop.latency_us histogram, virtual time).
  double hop_p50_us = 0;
  double hop_p95_us = 0;
  double hop_p99_us = 0;
  std::string metrics_json;  ///< uniform per-cell metrics block
};

RunResult run_course(bool delta, int node_count, int age, int hops,
                     int fleet, std::uint32_t convoy_window,
                     std::uint64_t crash_seed = 0, int concurrency = 0,
                     std::uint32_t group_window = 0) {
  PlatformConfig cfg;
  // Crash flight recorder: when the environment asks for a sample dump,
  // the fault-injected cells append their per-node flight records there
  // (CI uploads the file as an artifact).
  if (const char* flight = std::getenv("MAR_FLIGHT_DUMP");
      flight != nullptr && crash_seed != 0) {
    cfg.flight_dump_path = flight;
  }
  // Full-image mode caches no channel base, so no delta can apply.
  if (!delta) cfg.ship_cache_bytes = 0;
  cfg.ship_convoy_window = convoy_window;
  // The window sweep contrasts the whole coalescing stack: convoy
  // batching AND the participant/local group commit it feeds. The
  // pipeline cell overrides the coupling to hold the commit window at
  // its default while convoys ride wider.
  cfg.group_commit_window = group_window != 0 ? group_window : convoy_window;
  cfg.node_concurrency = concurrency != 0 ? concurrency
                                          : (fleet > 1 ? 4 : 1);
  cfg.discard_log_on_top_level = false;  // the aged log is the point
  TestWorld w(cfg, node_count, /*seed=*/13);
  harness::register_workload(w.platform);
  if (crash_seed != 0) {
    Rng rng(crash_seed);
    for (int k = 0; k < 4; ++k) {
      const NodeId node = TestWorld::n(1 + static_cast<int>(
                                               rng.next_below(
                                                   static_cast<std::uint64_t>(
                                                       node_count))));
      w.faults.crash_at(node, 5'000 + rng.next_below(200'000),
                        1'000 + rng.next_below(10'000));
    }
  }
  std::vector<AgentId> ids;
  for (int a = 0; a < fleet; ++a) {
    auto ag = std::make_unique<harness::WorkloadAgent>();
    ag->itinerary() = course(age, hops, node_count);
    ag->set_config("param_bytes", kParamBytes);
    auto r = w.platform.launch(std::move(ag));
    MAR_CHECK(r.is_ok());
    ids.push_back(r.value());
  }
  RunResult res;
  res.ok = w.platform.run_until_all_finished(ids);
  res.sim_us = w.sim.now();
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    res.ok = res.ok && out.state == AgentOutcome::State::done;
    if (!res.ok) return res;
    auto fin = w.platform.decode(out.final_agent);
    res.ok = res.ok &&
             fin->data().weak("visits").as_int() == age + hops;
    if (fleet == 1) res.final_agent = out.final_agent;
  }
  const auto& by_type = w.net.stats().bytes_by_type;
  if (auto it = by_type.find("ship.convoy"); it != by_type.end()) {
    res.convoy_bytes = it->second;
  }
  if (auto it = by_type.find(tx::msg::prepare); it != by_type.end()) {
    res.prepare_bytes = it->second;
  }
  for (int n = 1; n <= node_count; ++n) {
    auto& node = w.platform.node(TestWorld::n(n));
    res.participant_syncs += node.txm().participant_syncs();
    res.coordinator_syncs += node.txm().stats().coordinator_syncs;
    res.pipeline_depth_max = std::max<std::uint64_t>(
        res.pipeline_depth_max, node.txm().stats().pipeline_depth_max);
    res.delta_ships += node.shipments().stats().delta_ships;
  }
  const auto snap = w.platform.metrics_snapshot();
  if (const auto it = snap.histograms.find("hop.latency_us");
      it != snap.histograms.end()) {
    res.hop_p50_us = it->second.percentile(0.50);
    res.hop_p95_us = it->second.percentile(0.95);
    res.hop_p99_us = it->second.percentile(0.99);
  }
  res.metrics_json = snap.to_json();
  return res;
}

/// Write the complete span timeline of one representative multi-node run
/// (3-node ring, 2 agents) to `path` — the trace_timeline.py input that
/// CI stitches and the committed self-check fixture is generated from.
bool dump_span_timeline(const char* path) {
  PlatformConfig cfg;
  cfg.node_concurrency = 2;
  TestWorld w(cfg, /*node_count=*/3, /*seed=*/13);
  harness::register_workload(w.platform);
  std::vector<AgentId> ids;
  for (int a = 0; a < 2; ++a) {
    auto ag = std::make_unique<harness::WorkloadAgent>();
    ag->itinerary() = course(/*age=*/2, /*hops=*/12, /*node_count=*/3);
    ag->set_config("param_bytes", kParamBytes);
    auto r = w.platform.launch(std::move(ag));
    MAR_CHECK(r.is_ok());
    ids.push_back(r.value());
  }
  if (!w.platform.run_until_all_finished(ids)) return false;
  // The last agent's outcome lands before the coordinator-side commit
  // callbacks of the penultimate hops have fired; drain those events so
  // every hop span in the dump is closed.
  w.sim.run_until(w.sim.now() + 1'000'000);
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write span dump: " << path << "\n";
    return false;
  }
  w.platform.spans().dump(os);
  return true;
}

struct Cell {
  bool ok = false;
  double bytes_per_hop = 0;
  double hops_per_sec = 0;
  std::uint64_t delta_ships = 0;
  double hop_p50_us = 0;
  double hop_p95_us = 0;
  double hop_p99_us = 0;
  std::string metrics_json;
};

/// Marginal per-hop cost: the convoy bytes / virtual time of the hops
/// BEYOND a shorter run, so one-time channel establishment (the first
/// base image per pair) is excluded from the steady-state figure.
Cell measure(bool delta, int node_count, int age, int warm_hops,
             int measured_hops) {
  const auto warm = run_course(delta, node_count, age, warm_hops, 1, 1);
  const auto total =
      run_course(delta, node_count, age, warm_hops + measured_hops, 1, 1);
  Cell c;
  c.ok = warm.ok && total.ok && total.convoy_bytes > warm.convoy_bytes &&
         total.sim_us > warm.sim_us;
  c.bytes_per_hop =
      static_cast<double>(total.convoy_bytes - warm.convoy_bytes) /
      measured_hops;
  c.hops_per_sec = static_cast<double>(measured_hops) /
                   (static_cast<double>(total.sim_us - warm.sim_us) * 1e-6);
  c.delta_ships = total.delta_ships;
  c.hop_p50_us = total.hop_p50_us;
  c.hop_p95_us = total.hop_p95_us;
  c.hop_p99_us = total.hop_p99_us;
  c.metrics_json = total.metrics_json;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::BenchReport report("a7_shipping");

  const bool quick = std::getenv("MAR_BENCH_QUICK") != nullptr;
  const std::vector<int> ages = quick ? std::vector<int>{8, 32}
                                      : std::vector<int>{8, 32, 128};
  const std::vector<std::pair<const char*, int>> localities =
      quick ? std::vector<std::pair<const char*, int>>{{"pair", 2}}
            : std::vector<std::pair<const char*, int>>{{"pair", 2},
                                                       {"ring6", 6}};
  // Cell identity (hops per cell) is preset-stable: the quick preset
  // only shrinks the SWEEP, so CI's reduced run still diffs its cells
  // against the committed full-preset baseline (like A6).
  const int warm_hops = 8;
  const int measured_hops = 32;

  std::cout << "=== A7: delta-shipping migrations (base+delta channels vs "
               "full images) ===\n"
            << "(marginal migration bytes/agent-hop and virtual-time "
               "hops/sec vs agent age;\n " << measured_hops
            << " measured hops after " << warm_hops
            << " warm hops; param " << kParamBytes << " B)\n\n";
  std::cout << "mode   locality  age  bytes/hop  hops/sec\n";
  std::cout << "------------------------------------------\n";

  bool shape_ok = true;
  struct Row {
    const char* locality;
    int age;
    bool delta;
    Cell cell;
  };
  std::vector<Row> rows;
  for (const bool delta : {false, true}) {
    for (const auto& [name, nodes] : localities) {
      for (const int age : ages) {
        const Cell c = measure(delta, nodes, age, warm_hops, measured_hops);
        rows.push_back(Row{name, age, delta, c});
        shape_ok = shape_ok && c.ok;
        std::cout << (delta ? "delta" : "full ") << "  " << std::setw(8)
                  << name << "  " << std::setw(3) << age << "  "
                  << std::setw(9) << std::fixed << std::setprecision(1)
                  << c.bytes_per_hop << "  " << std::setw(8)
                  << std::setprecision(1) << c.hops_per_sec << "\n";
        report.row()
            .set("mode", delta ? "delta" : "full")
            .set("locality", name)
            .set("age", age)
            .set("measured_hops", measured_hops)
            .set("bytes_per_hop", c.bytes_per_hop)
            .set("hops_per_sec", c.hops_per_sec)
            .set("delta_ships", c.delta_ships)
            .set("hop_p50_us", c.hop_p50_us)
            .set("hop_p95_us", c.hop_p95_us)
            .set("hop_p99_us", c.hop_p99_us)
            .set_json("metrics", c.metrics_json)
            .set("ok", c.ok);
      }
    }
  }

  auto cell_of = [&rows](const char* locality, int age, bool delta) {
    for (const auto& r : rows) {
      if (std::string(r.locality) == locality && r.age == age &&
          r.delta == delta) {
        return r.cell;
      }
    }
    MAR_CHECK_MSG(false, "missing sweep cell");
    return rows.front().cell;
  };

  // Shape: on the locality-heavy pair itinerary, full-image bytes/hop
  // grow with age (the log rides every hop) while delta bytes/hop stay
  // flat within 1.15x — and the smaller transfers win virtual-time
  // throughput at the oldest age.
  const int oldest = ages.back();
  const auto full_young = cell_of("pair", ages.front(), false);
  const auto full_old = cell_of("pair", oldest, false);
  const auto delta_young = cell_of("pair", ages.front(), true);
  const auto delta_old = cell_of("pair", oldest, true);
  const bool grows =
      full_old.bytes_per_hop > 1.5 * full_young.bytes_per_hop;
  const bool flat =
      delta_old.bytes_per_hop <= 1.15 * delta_young.bytes_per_hop;
  const bool faster = delta_old.hops_per_sec > full_old.hops_per_sec;
  const bool deltas_used = delta_old.delta_ships > 0;
  std::cout << "\npair: full grows " << std::setprecision(2)
            << full_old.bytes_per_hop / full_young.bytes_per_hop
            << "x, delta flat "
            << delta_old.bytes_per_hop / delta_young.bytes_per_hop
            << "x, hops/sec@" << oldest << " "
            << delta_old.hops_per_sec / full_old.hops_per_sec << "x -> "
            << ((grows && flat && faster && deltas_used) ? "OK"
                                                         : "MISMATCH")
            << "\n";
  shape_ok = shape_ok && grows && flat && faster && deltas_used;
  report.row()
      .set("phase", "check")
      .set("oldest_age", oldest)
      .set("full_growth", full_old.bytes_per_hop / full_young.bytes_per_hop)
      .set("delta_flatness",
           delta_old.bytes_per_hop / delta_young.bytes_per_hop)
      .set("speedup", delta_old.hops_per_sec / full_old.hops_per_sec);

  // Convoy-window sweep: a fleet migrating towards the same destinations
  // within the window shares convoy messages and participant-side 2PC
  // syncs. Gate: window 4 cuts participant syncs/hop by >= 2x.
  const int fleet = 8;
  const int fleet_age = 4;
  const int fleet_hops = 16;  // preset-stable cell identity (see above)
  std::cout << "\nwindow  fleet  syncs/hop\n";
  std::cout << "------------------------\n";
  double syncs_w1 = 0;
  double syncs_w4 = 0;
  for (const std::uint32_t window : {1u, 4u}) {
    const auto run = run_course(/*delta=*/true, 2, fleet_age, fleet_hops,
                                fleet, window);
    shape_ok = shape_ok && run.ok;
    const double syncs_per_hop =
        static_cast<double>(run.participant_syncs) /
        (static_cast<double>(fleet) * fleet_hops);
    (window == 1 ? syncs_w1 : syncs_w4) = syncs_per_hop;
    std::cout << std::setw(6) << window << "  " << std::setw(5) << fleet
              << "  " << std::setw(9) << std::setprecision(2)
              << syncs_per_hop << "\n";
    report.row()
        .set("phase", "convoy")
        .set("ship_convoy_window", static_cast<int>(window))
        .set("fleet", fleet)
        .set("hops", fleet_hops)
        .set("syncs_per_hop", syncs_per_hop)
        .set("ok", run.ok);
  }
  const bool coalesced = syncs_w4 * 2 <= syncs_w1;
  std::cout << "window 4 vs 1: " << std::setprecision(2)
            << (syncs_w1 / (syncs_w4 > 0 ? syncs_w4 : 1e-9)) << "x fewer -> "
            << (coalesced ? "OK" : "MISMATCH") << "\n";
  shape_ok = shape_ok && coalesced;
  report.row()
      .set("phase", "convoy_check")
      .set("sync_reduction", syncs_w1 / (syncs_w4 > 0 ? syncs_w4 : 1e-9));

  // Pipelined-commit cell: a wide fleet ping-pongs with the coordinator
  // decision queue live (group window 4), PREPAREs piggybacked on the
  // convoy frames and a high slot count, so hops overlap deeply. Gates:
  //   * coordinator decision syncs/hop < 0.25 (one batched flush covers
  //     many same-instant votes);
  //   * zero tx.prepare wire bytes — a convoy costs ONE round trip, the
  //     transfer doubles as the prepare;
  //   * pipeline_depth_max > 32 — the node really keeps that many
  //     transactions in flight at once.
  const int pipe_fleet = 48;
  const int pipe_hops = 16;
  const std::uint32_t pipe_group_window = 4;
  const std::uint32_t pipe_convoy_window = 16;
  const int pipe_concurrency = 64;
  const auto pipe = run_course(/*delta=*/true, 2, /*age=*/0, pipe_hops,
                               pipe_fleet, pipe_convoy_window,
                               /*crash_seed=*/0, pipe_concurrency,
                               pipe_group_window);
  const double total_pipe_hops =
      static_cast<double>(pipe_fleet) * pipe_hops;
  const double coord_syncs_per_hop =
      static_cast<double>(pipe.coordinator_syncs) / total_pipe_hops;
  const double pipe_hops_per_sec =
      total_pipe_hops / (static_cast<double>(pipe.sim_us) * 1e-6);
  const bool pipe_syncs_ok = coord_syncs_per_hop < 0.25;
  const bool one_round_trip = pipe.prepare_bytes == 0;
  const bool deep = pipe.pipeline_depth_max > 32;
  std::cout << "\npipelined commit (fleet " << pipe_fleet << ", window "
            << pipe_group_window << ", convoy " << pipe_convoy_window
            << "): coord syncs/hop " << std::setprecision(3)
            << coord_syncs_per_hop << " (<0.25 "
            << (pipe_syncs_ok ? "OK" : "MISMATCH") << "), prepare bytes "
            << pipe.prepare_bytes << " (one round trip "
            << (one_round_trip ? "OK" : "MISMATCH") << "), depth max "
            << pipe.pipeline_depth_max << " (>32 "
            << (deep ? "OK" : "MISMATCH") << ")\n";
  const bool pipeline_ok =
      pipe.ok && pipe_syncs_ok && one_round_trip && deep;
  shape_ok = shape_ok && pipeline_ok;
  report.row()
      .set("phase", "pipeline")
      .set("group_commit_window", static_cast<int>(pipe_group_window))
      .set("ship_convoy_window", static_cast<int>(pipe_convoy_window))
      .set("node_concurrency", pipe_concurrency)
      .set("fleet", pipe_fleet)
      .set("hops", pipe_hops)
      .set("coordinator_syncs_per_hop", coord_syncs_per_hop)
      .set("pipeline_depth_max", pipe.pipeline_depth_max)
      .set("prepare_bytes", pipe.prepare_bytes)
      .set("hops_per_sec", pipe_hops_per_sec)
      .set("ok", pipeline_ok);

  // Fault-injected bit-identity: under an identical crash schedule the
  // delta-shipped run's final agent state must equal the full-image
  // run's, byte for byte.
  bool identical = true;
  for (const std::uint64_t seed : {19u, 23u}) {
    const auto d = run_course(true, 2, 8, 16, 1, 2, seed);
    const auto f = run_course(false, 2, 8, 16, 1, 2, seed);
    const bool same =
        d.ok && f.ok && d.final_agent == f.final_agent;
    identical = identical && same;
    report.row()
        .set("phase", "faults")
        .set("seed", static_cast<std::uint64_t>(seed))
        .set("bit_identical", same)
        .set("ok", same);
  }
  std::cout << "fault-injected bit-identity: "
            << (identical ? "OK" : "MISMATCH") << "\n";
  shape_ok = shape_ok && identical;

  // Span-timeline dump for trace_timeline.py (CI artifact / fixture
  // regeneration); opt-in via environment so normal runs stay lean.
  if (const char* span_dump = std::getenv("MAR_SPAN_DUMP")) {
    const bool dumped = dump_span_timeline(span_dump);
    std::cout << "span timeline dump -> " << span_dump << ": "
              << (dumped ? "OK" : "FAILED") << "\n";
    shape_ok = shape_ok && dumped;
  }

  std::cout << (shape_ok ? "\nshape check: OK\n" : "\nshape check: FAILED\n");
  report.set_ok(shape_ok);
  if (!json_path.empty() && !report.write_file(json_path)) return 2;
  return shape_ok ? 0 : 1;
}
