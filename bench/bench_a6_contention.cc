// Experiment A6 — contended-fleet fast path: per-key locking + group
// commit.
//
// The slotted scheduler scales independent fleets, but any two agents
// writing the same datum serialize on its exclusive lock and burn slots on
// lock_conflict abort/restart. The paper's ACID envelope (Sec. 2)
// requires isolation per *datum*: step transactions conflict only when
// their declared key-sets overlap — so a fleet hammering ONE bank scales
// with node_concurrency as long as its account draws spread.
//
// The workload: F agents x S `bank_hot` steps on one node, each step a
// deposit into an account drawn from K accounts — uniformly, Zipf(s)
// (hot-key skew), or always the same one (one_key: every concurrent pair
// collides, the envelope of one exclusive lock per resource instance).
// Swept over draw skew x node_concurrency {1,2,4,8}, reporting
//   * steps/sec (virtual-time throughput: committed steps / makespan),
//   * abort rate (lock_conflict aborts per committed step), and
//   * syncs/step (metered stable-storage sync batches per committed step).
// A second sweep raises group_commit_window at the most contended cell:
// commits of a window share one metered sync, so syncs/step drops below 1.
//
// Correctness is asserted, not assumed: every agent's steps run exactly
// once and the committed account balances must sum to exactly the number
// of committed deposits — any lost or doubled per-key overlay write-back
// would break the invariant.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "common.h"
#include "expt/parallel_worlds.h"

using namespace mar;
using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;

namespace {

constexpr int kAccounts = 64;
constexpr double kZipfS = 1.2;

enum class Skew { uniform, zipf, one_key };

const char* to_string(Skew skew) {
  switch (skew) {
    case Skew::uniform: return "uniform";
    case Skew::zipf: return "zipf";
    case Skew::one_key: return "one_key";
  }
  return "?";
}

struct Cell {
  bool ok = false;
  Skew skew = Skew::uniform;
  std::uint32_t conc = 1;
  std::uint32_t window = 1;
  int fleet = 0;
  int steps = 0;
  sim::TimeUs makespan_us = 0;
  double steps_per_sec = 0;
  double abort_rate = 0;
  double syncs_per_step = 0;
  std::uint64_t lock_conflicts = 0;
  std::uint64_t sync_batches = 0;
};

/// Per-step account draws for one agent: uniform or Zipf(kZipfS) over
/// kAccounts, deterministic in (seed, agent index); one_key always draws
/// account 0.
std::vector<std::int64_t> draw_accounts(Skew skew, int steps, Rng& rng) {
  if (skew == Skew::one_key) return {0};
  std::vector<std::int64_t> draws;
  draws.reserve(static_cast<std::size_t>(steps));
  if (skew == Skew::uniform) {
    for (int s = 0; s < steps; ++s) {
      draws.push_back(static_cast<std::int64_t>(rng.next_below(kAccounts)));
    }
    return draws;
  }
  // Zipf via inverse CDF over the rank distribution 1/r^s.
  std::vector<double> cdf(kAccounts);
  double sum = 0;
  for (int r = 0; r < kAccounts; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[static_cast<std::size_t>(r)] = sum;
  }
  for (int s = 0; s < steps; ++s) {
    const double u = rng.next_double() * sum;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    draws.push_back(static_cast<std::int64_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(), kAccounts - 1)));
  }
  return draws;
}

Cell run_cell(Skew skew, std::uint32_t conc, std::uint32_t window,
              int fleet, int steps, std::uint64_t seed) {
  agent::PlatformConfig cfg;
  cfg.node_concurrency = conc;
  cfg.group_commit_window = window;
  TestWorld w(cfg, /*node_count=*/1, seed);
  harness::register_workload(w.platform);
  for (int a = 0; a < kAccounts; ++a) {
    w.open_account(1, "a" + std::to_string(a), 0);
  }

  Rng draws_rng(seed * 7919 + (skew == Skew::zipf ? 1 : 0));
  std::vector<AgentId> ids;
  ids.reserve(static_cast<std::size_t>(fleet));
  for (int a = 0; a < fleet; ++a) {
    auto ag = std::make_unique<harness::WorkloadAgent>();
    Itinerary tour;
    for (int s = 0; s < steps; ++s) tour.step("bank_hot", TestWorld::n(1));
    Itinerary main_it;
    main_it.sub(std::move(tour));
    ag->itinerary() = std::move(main_it);
    serial::Value accounts = serial::Value::empty_list();
    for (const auto d : draw_accounts(skew, steps, draws_rng)) {
      accounts.push_back(d);
    }
    ag->set_config_value("hot_accounts", std::move(accounts));
    auto r = w.platform.launch(std::move(ag));
    MAR_CHECK(r.is_ok());
    ids.push_back(r.value());
  }

  Cell c;
  c.skew = skew;
  c.conc = conc;
  c.window = window;
  c.fleet = fleet;
  c.steps = steps;
  if (!w.platform.run_until_all_finished(ids)) return c;

  bool all_ok = true;
  for (const auto id : ids) {
    const auto& out = w.platform.outcome(id);
    all_ok = all_ok && out.state == AgentOutcome::State::done;
    if (out.state != AgentOutcome::State::done) continue;
    c.makespan_us = std::max(c.makespan_us, out.finished_at);
    auto fin = w.platform.decode(out.final_agent);
    all_ok = all_ok &&
             fin->data().weak("visits").as_int() == steps;  // exactly once
  }
  // The committed balances must account for every deposit exactly once,
  // whatever the interleaving — the per-key overlays' acid test.
  std::int64_t total_balance = 0;
  const auto& bank = w.committed(1, "bank");
  for (const auto& [acct, entry] : bank.at("accounts").as_map()) {
    (void)acct;
    total_balance += entry.at("balance").as_int();
  }
  const auto committed_steps = static_cast<std::uint64_t>(fleet) *
                               static_cast<std::uint64_t>(steps);
  all_ok = all_ok &&
           total_balance == static_cast<std::int64_t>(committed_steps);

  c.ok = all_ok && c.makespan_us > 0;
  c.lock_conflicts = w.platform.lock_conflict_aborts();
  c.sync_batches =
      w.platform.node(TestWorld::n(1)).storage().stats().sync_batches;
  c.steps_per_sec = static_cast<double>(committed_steps) * 1e6 /
                    static_cast<double>(c.makespan_us);
  c.abort_rate = static_cast<double>(c.lock_conflicts) /
                 static_cast<double>(committed_steps);
  c.syncs_per_step = static_cast<double>(c.sync_batches) /
                     static_cast<double>(committed_steps);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::BenchReport report("a6_contention");

  // The reduced preset trims the sweep dimensions but keeps the cell
  // parameters (fleet, steps) identical to the full preset, so CI's quick
  // rows land on the SAME baseline cells and the abort-rate / syncs-per-
  // step regression gates in bench_diff.py actually compare.
  const bool quick = std::getenv("MAR_BENCH_QUICK") != nullptr;
  const int fleet = 16;
  const int steps = 16;
  const std::vector<std::uint32_t> concs =
      quick ? std::vector<std::uint32_t>{1, 8}
            : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::vector<std::uint32_t> windows =
      quick ? std::vector<std::uint32_t>{4}
            : std::vector<std::uint32_t>{2, 4, 8};

  std::cout << "=== A6: contended fleet (per-key locking + group commit) "
               "===\n"
            << "(" << fleet << " agents x " << steps
            << " bank deposits on ONE bank of " << kAccounts
            << " accounts; draws uniform vs zipf(" << kZipfS
            << ") vs one key)\n\n";

  struct Job {
    Skew skew;
    std::uint32_t conc;
    std::uint32_t window;
  };
  std::vector<Job> jobs;
  for (const Skew skew : {Skew::uniform, Skew::zipf, Skew::one_key}) {
    for (const auto conc : concs) jobs.push_back({skew, conc, 1});
  }
  // Group-commit sweep at the most multiprogrammed zipf cell.
  for (const auto win : windows) jobs.push_back({Skew::zipf, 8, win});

  const auto results = expt::run_worlds(
      jobs.size(),
      [&jobs, fleet, steps](std::size_t i) {
        const Job& j = jobs[i];
        return run_cell(j.skew, j.conc, j.window, fleet, steps,
                        /*seed=*/11);
      });

  auto cell_of = [&](Skew skew, std::uint32_t conc,
                     std::uint32_t window) -> const Cell& {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].skew == skew && jobs[i].conc == conc &&
          jobs[i].window == window) {
        return results[i];
      }
    }
    MAR_CHECK_MSG(false, "missing sweep cell");
    return results[0];
  };

  bool shape_ok = true;
  std::cout << "skew     conc  steps/s  abort/step  syncs/step  "
               "makespan[ms]\n"
            << "------------------------------------------------------"
               "----\n";
  for (const auto& c : results) {
    if (c.window != 1) continue;
    shape_ok = shape_ok && c.ok;
    std::cout << std::left << std::setw(8) << to_string(c.skew) << std::right
              << " " << std::setw(4) << c.conc << "  "
              << std::setw(7) << std::fixed << std::setprecision(0)
              << c.steps_per_sec << "  " << std::setw(10)
              << std::setprecision(3) << c.abort_rate << "  " << std::setw(10)
              << c.syncs_per_step << "  " << std::setw(12)
              << std::setprecision(2) << c.makespan_us / 1000.0 << "\n";
  }
  for (const auto& c : results) {
    report.row()
        .set("phase", c.window == 1 ? "sweep" : "group_commit")
        .set("skew", to_string(c.skew))
        .set("node_concurrency", static_cast<int>(c.conc))
        .set("group_commit_window", static_cast<int>(c.window))
        .set("fleet", c.fleet)
        .set("steps", c.steps)
        .set("steps_per_sec", c.steps_per_sec)
        .set("abort_rate", c.abort_rate)
        .set("syncs_per_step", c.syncs_per_step)
        .set("makespan_us", c.makespan_us)
        .set("lock_conflict_aborts", c.lock_conflicts)
        .set("sync_batches", c.sync_batches)
        .set("ok", c.ok);
  }

  std::cout << "\ngroup commit (zipf, conc 8):\n"
            << "window  steps/s  syncs/step\n"
            << "---------------------------\n";
  {
    const auto& base = cell_of(Skew::zipf, 8, 1);
    std::cout << std::setw(6) << 1 << "  " << std::setw(7) << std::fixed
              << std::setprecision(0) << base.steps_per_sec << "  "
              << std::setw(10) << std::setprecision(3) << base.syncs_per_step
              << "\n";
    for (const auto win : windows) {
      const auto& c = cell_of(Skew::zipf, 8, win);
      shape_ok = shape_ok && c.ok;
      std::cout << std::setw(6) << win << "  " << std::setw(7)
                << std::setprecision(0) << c.steps_per_sec << "  "
                << std::setw(10) << std::setprecision(3) << c.syncs_per_step
                << "\n";
      // The whole point: commits of a window share one metered sync.
      shape_ok = shape_ok && c.syncs_per_step < 1.0;
    }
  }

  // Headline checks. Hot-key skew at full multiprogramming: spreading the
  // draws over per-account locks must at least double throughput over
  // the one-key fleet (the one-lock-per-instance envelope) while aborting
  // strictly less; and with more slots zipf must beat itself at conc 1
  // (the scaling one exclusive lock cannot deliver).
  const auto& one_key = cell_of(Skew::one_key, 8, 1);
  const auto& zipf = cell_of(Skew::zipf, 8, 1);
  const double speedup = zipf.steps_per_sec / one_key.steps_per_sec;
  const bool hot_fast = speedup >= 2.0;
  const bool hot_fewer_aborts = zipf.abort_rate < one_key.abort_rate;
  const bool scales =
      zipf.steps_per_sec > cell_of(Skew::zipf, 1, 1).steps_per_sec;
  std::cout << "\nzipf@conc8: " << std::setprecision(2) << speedup
            << "x one_key (abort/step " << std::setprecision(3)
            << one_key.abort_rate << " -> " << zipf.abort_rate << ") -> "
            << ((hot_fast && hot_fewer_aborts && scales) ? "OK" : "MISMATCH")
            << "\n";
  shape_ok = shape_ok && hot_fast && hot_fewer_aborts && scales;
  report.row()
      .set("phase", "check")
      .set("skew", "zipf")
      .set("node_concurrency", 8)
      .set("per_key_speedup", speedup)
      .set("one_key_abort_rate", one_key.abort_rate)
      .set("per_key_abort_rate", zipf.abort_rate)
      .set("required_speedup", 2.0);

  std::cout << (shape_ok ? "\nshape check: OK\n" : "\nshape check: FAILED\n");
  report.set_ok(shape_ok);
  if (!json_path.empty() && !report.write_file(json_path)) return 2;
  return shape_ok ? 0 : 1;
}
