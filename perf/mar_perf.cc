// mar_perf: the repository benchmark (see perf/README.md).
//
//   mar_perf --workload <name> --seed <n> [--traced] [--seconds <s>]
//            [--scale <x>] [--json <out>] [--spans <out.jsonl>]
//
// One round builds a deterministic world on one thread, schedules the
// workload's agents as a seeded Poisson arrival process in simulated time,
// drives the simulator until its queue drains, and checks every agent and
// the workload's resource invariant. Rounds repeat with the same seed
// while another one fits in --seconds of wall time; every round must
// reproduce the first one's deterministic metrics exactly, and host times
// are reported as medians over the rounds after the first (a warm-up).
// Set-up time is measured before the rounds, on worlds that are not driven.
//
// Untraced, the drive runs the simulator in slices of simulated time and
// the report carries the end-to-end metrics. With --traced the drive steps
// the simulator event by event inside bench-side spans (tracer.h) and the
// report adds the per-layer metrics. Exit status: 0 when every check
// passed, 1 when one failed, 2 on bad arguments or an unwritable output
// file.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/world.h"
#include "perf_agent.h"
#include "resource/bank.h"
#include "resource/directory.h"
#include "tracer.h"

namespace {

using namespace mar;
using agent::AgentOutcome;
using agent::Itinerary;
using harness::TestWorld;
using perf::SpanName;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { local_young, ring_aged, hot_bank, rollback_crash };

struct Spec {
  const char* name;
  Kind kind;
  int nodes;
  int agents;         ///< per round at --scale 1
  double rate_per_s;  ///< Poisson arrival rate, simulated time
};

constexpr Spec kSpecs[] = {
    {"local_young", Kind::local_young, 4, 3000, 1200.0},
    {"ring_aged", Kind::ring_aged, 8, 300, 12.5},
    {"hot_bank", Kind::hot_bank, 4, 1500, 400.0},
    {"rollback_crash", Kind::rollback_crash, 12, 600, 200.0},
};

// local_young and hot_bank agents start with a `noop` on their owner's
// node and migrate once to their home node, where all their work runs;
// the one migration is the only wire traffic of these two workloads.
//
// local_young: kYoungSubs top-level subs of kYoungSteps spends, so the
// log is discarded every kYoungSteps steps.
constexpr int kYoungSubs = 8;
constexpr int kYoungSteps = 8;
// ring_aged: one sub of migrating spends, so log and image keep growing.
constexpr int kRingHops = 48;
// hot_bank: one sub of deposits drawn Zipf(kZipfS) over kAccounts.
constexpr int kBankSteps = 48;
constexpr int kAccounts = 64;
constexpr double kZipfS = 1.2;
// rollback_crash: kCrashSubs subs of kCrashSubSteps touches on successive
// nodes; sub kRollbackSub ends in a noop that rolls it back once.
constexpr int kCrashSubs = 5;
constexpr int kCrashSubSteps = 6;
constexpr int kRollbackSub = 2;
constexpr sim::TimeUs kCrashEveryUs = 50'000;
constexpr sim::TimeUs kCrashDownUs = 20'000;

constexpr std::size_t kSpanSampleCap = 200'000;
// A round that has not drained this long (simulated) after its last
// arrival, or within this much wall time, has melted down and fails.
constexpr sim::TimeUs kDrainLimitUs = 120'000'000;
constexpr double kDriveWallLimitS = 60;
// Granularity of the drive loop's drain and wall-time checks.
constexpr sim::TimeUs kDriveChunkUs = 10'000;
constexpr std::size_t kSetupSamples = 20;
// Traced runs sample the record-log size this often (simulated).
constexpr sim::TimeUs kLogSampleUs = 10'000;

/// What a correct run leaves in each agent.
struct Expect {
  std::int64_t visits = 0;
  std::uint32_t rollbacks = 0;
  std::int64_t touches = 0;
};

Expect expect_for(Kind k) {
  switch (k) {
    case Kind::local_young:
      return {1 + kYoungSubs * kYoungSteps, 0, 0};
    case Kind::ring_aged:
      return {kRingHops, 0, 0};
    case Kind::hot_bank:
      return {1 + kBankSteps, 0, 0};
    case Kind::rollback_crash:
      // Every touch once, the noop once, the rolled-back sub's touches
      // once more; the compensated touches are taken back.
      return {kCrashSubs * kCrashSubSteps + 1 + kCrashSubSteps, 1,
              kCrashSubs * kCrashSubSteps};
  }
  return {};
}

agent::PlatformConfig config_for(Kind k) {
  agent::PlatformConfig c;
  c.span_tracing = true;  // pinned: the sim-time histograms need it
  switch (k) {
    case Kind::local_young:
    case Kind::hot_bank:
      c.node_concurrency = 8;
      break;
    case Kind::ring_aged:
      c.ship_convoy_window = 8;
      break;
    case Kind::rollback_crash:
      c.node_concurrency = 4;
      c.strategy = agent::RollbackStrategy::optimized;
      c.checkpoint_interval_bytes = 64 * 1024;
      break;
  }
  return c;
}

std::vector<double> zipf_cdf() {
  std::vector<double> cdf(kAccounts);
  double sum = 0;
  for (int r = 0; r < kAccounts; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[static_cast<std::size_t>(r)] = sum;
  }
  return cdf;
}

std::int64_t draw_zipf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.next_double() * cdf.back();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::int64_t>(it - cdf.begin(), kAccounts - 1);
}

/// Agent `i` of workload `spec`; draws come from `rng`.
std::unique_ptr<perf::PerfAgent> make_agent(const Spec& spec, int i,
                                            const std::vector<double>& cdf,
                                            Rng& rng) {
  auto a = std::make_unique<perf::PerfAgent>();
  const auto node = [&spec](int k) { return TestWorld::n(k % spec.nodes + 1); };
  Itinerary main_it;
  switch (spec.kind) {
    case Kind::local_young:
      for (int s = 0; s < kYoungSubs; ++s) {
        Itinerary sub;
        if (s == 0) sub.step("noop", node(i + 1));  // dispatch
        for (int j = 0; j < kYoungSteps; ++j) sub.step("spend", node(i));
        main_it.sub(std::move(sub));
      }
      break;
    case Kind::ring_aged: {
      Itinerary sub;
      for (int j = 0; j < kRingHops; ++j) sub.step("spend", node(i + j));
      main_it.sub(std::move(sub));
      break;
    }
    case Kind::hot_bank: {
      Itinerary sub;
      sub.step("noop", node(i + 1));  // dispatch
      serial::Value draws = serial::Value::empty_list();
      for (int j = 0; j < kBankSteps; ++j) {
        sub.step("deposit_hot", node(i));
        draws.push_back(draw_zipf(cdf, rng));
      }
      a->data().weak("draws") = std::move(draws);
      main_it.sub(std::move(sub));
      break;
    }
    case Kind::rollback_crash:
      for (int s = 0; s < kCrashSubs; ++s) {
        Itinerary sub;
        for (int j = 0; j < kCrashSubSteps; ++j) {
          const int hop = i + s * kCrashSubSteps + j;
          sub.step(j % 3 == 0 ? "touch_mixed" : "touch_split", node(hop));
        }
        if (s == kRollbackSub) {
          sub.step("noop", node(i + s * kCrashSubSteps + kCrashSubSteps - 1));
        }
        main_it.sub(std::move(sub));
      }
      a->data().weak("rollback") = std::int64_t{1};
      break;
  }
  a->itinerary() = std::move(main_it);
  return a;
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile of `v` (sorted in place); 0 when empty.
template <typename T>
double quantile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Round {
  double drive_s = 0;
  std::uint64_t agents = 0;
  std::uint64_t violating = 0;
  /// Empty when the workload's run-level invariant holds.
  std::string invariant_error;
  /// Metrics that must repeat exactly for a seed, traced or not.
  std::map<std::string, double> det;
  /// Host-time per-layer metrics (traced rounds only).
  std::map<std::string, double> host;
};

/// The state one round's scheduled events refer to.
class RoundWorld {
 public:
  RoundWorld(const RoundWorld&) = delete;
  RoundWorld& operator=(const RoundWorld&) = delete;
  RoundWorld(const Spec& spec, std::uint64_t seed, double scale)
      : spec_(spec), world_(config_for(spec.kind), spec.nodes, seed),
        rng_(seed) {
    perf::register_perf(world_.platform);
    for (int n = 1; n <= spec.nodes; ++n) {
      auto& rm = world_.platform.node(TestWorld::n(n)).resources();
      if (spec.kind == Kind::hot_bank) {
        serial::Value state = resource::Bank().initial_state();
        for (int a = 0; a < kAccounts; ++a) {
          serial::Value acc = serial::Value::empty_map();
          acc.set("balance", std::int64_t{0});
          acc.set("overdraft", false);
          state.as_map().at("accounts").set("a" + std::to_string(a),
                                            std::move(acc));
        }
        rm.add_resource(perf::kBank, std::make_unique<perf::TimedResource>(
                                         std::make_unique<resource::Bank>(),
                                         std::move(state)));
      }
      if (spec.kind == Kind::rollback_crash) {
        rm.add_resource(perf::kDir,
                        std::make_unique<perf::TimedResource>(
                            std::make_unique<resource::Directory>(),
                            resource::Directory().initial_state()));
      }
    }

    const auto count = std::max(
        1, static_cast<int>(std::lround(spec.agents * scale)));
    const auto cdf = zipf_cdf();
    pending_.resize(static_cast<std::size_t>(count));
    due_.resize(pending_.size());
    ids_.resize(pending_.size());
    double t = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      t += rng_.next_exponential(1e6 / spec.rate_per_s);
      due_[i] = static_cast<sim::TimeUs>(t);
      pending_[i] = make_agent(spec, static_cast<int>(i), cdf, rng_);
      world_.sim.schedule_at(due_[i], [this, i] { launch(i); });
    }
    if (spec.kind == Kind::rollback_crash) {
      next_crash_node_ = static_cast<int>(rng_.next_below(
                             static_cast<std::uint64_t>(spec.nodes))) +
                         1;
      world_.sim.schedule_at(rng_.next_below(kCrashEveryUs),
                             [this] { crash_tick(); });
    }
  }

  TestWorld& world() { return world_; }
  [[nodiscard]] const std::vector<AgentId>& ids() const { return ids_; }
  [[nodiscard]] const std::vector<sim::TimeUs>& due() const { return due_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

 private:
  void launch(std::size_t i) {
    auto r = world_.platform.launch(std::move(pending_[i]));
    MAR_CHECK_MSG(r.is_ok(), "launch failed: " << r.status());
    ids_[i] = r.value();
    ++launched_;
  }

  /// Crash the next node round-robin for kCrashDownUs, every
  /// kCrashEveryUs, until every agent has finished.
  void crash_tick() {
    while (finished_ < launched_ &&
           world_.platform.finished(ids_[finished_])) {
      ++finished_;
    }
    if (finished_ == ids_.size()) return;
    const NodeId n = TestWorld::n(next_crash_node_);
    next_crash_node_ = next_crash_node_ % spec_.nodes + 1;
    world_.net.crash_node(n);
    world_.sim.schedule_after(kCrashDownUs, [this, n] {
      const perf::Scope span(SpanName::storage_recover);
      world_.net.recover_node(n);
      ++recoveries_;
    });
    world_.sim.schedule_after(kCrashEveryUs, [this] { crash_tick(); });
  }

  const Spec& spec_;
  TestWorld world_;
  Rng rng_;
  std::vector<std::unique_ptr<perf::PerfAgent>> pending_;
  std::vector<sim::TimeUs> due_;
  std::vector<AgentId> ids_;
  std::size_t launched_ = 0;
  /// Agents [0, finished_) are known to have finished.
  std::size_t finished_ = 0;
  int next_crash_node_ = 1;
  std::uint64_t recoveries_ = 0;
};

double log_mb(TestWorld& w, int nodes) {
  std::size_t bytes = 0;
  for (int n = 1; n <= nodes; ++n) {
    bytes += w.platform.node(TestWorld::n(n)).storage().record_area_bytes();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Round run_round(const Spec& spec, std::uint64_t seed, double scale,
                perf::Tracer* tracer) {
  Round r;
  auto rw = std::make_unique<RoundWorld>(spec, seed, scale);
  TestWorld& w = rw->world();

  // --- drive -----------------------------------------------------------------
  std::uint64_t pending_max = 0;
  double log_peak_mb = 0;
  const sim::TimeUs horizon = rw->due().back() + kDrainLimitUs;
  double excluded_s = 0;
  const auto drive_begin = Clock::now();
  const auto melted = [&] {
    return w.sim.now() >= horizon ||
           seconds_since(drive_begin) > kDriveWallLimitS;
  };
  if (tracer == nullptr) {
    while (w.sim.pending() > 0 && !melted()) {
      w.sim.run_until(w.sim.now() + kDriveChunkUs);
    }
  } else {
    perf::active = tracer;
    sim::TimeUs next_sample = 0;
    sim::TimeUs next_check = 0;
    // record_area_bytes() walks every log segment; its time is not the
    // program's and is left out of the traced drive time.
    std::int64_t sampler_ns = 0;
    while (w.sim.pending() > 0) {
      tracer->begin(SpanName::sim_event);
      w.sim.step();
      tracer->end();
      pending_max = std::max<std::uint64_t>(pending_max, w.sim.pending());
      if (w.sim.now() >= next_sample) {
        const auto t0 = perf::Tracer::now_ns();
        log_peak_mb = std::max(log_peak_mb, log_mb(w, spec.nodes));
        next_sample = (w.sim.now() / kLogSampleUs + 1) * kLogSampleUs;
        sampler_ns += perf::Tracer::now_ns() - t0;
      }
      if (w.sim.now() >= next_check) {
        if (melted()) break;
        next_check = w.sim.now() + kDriveChunkUs;
      }
    }
    perf::active = nullptr;
    excluded_s = static_cast<double>(sampler_ns) * 1e-9;
  }
  r.drive_s = seconds_since(drive_begin) - excluded_s;
  if (w.sim.pending() > 0) {
    r.invariant_error = std::string(spec.name) + ": still busy at sim " +
                        std::to_string(w.sim.now()) + " us after " +
                        std::to_string(r.drive_s) + " s";
    return r;
  }

  // --- verify ----------------------------------------------------------------
  const Expect expect = expect_for(spec.kind);
  std::vector<double> latency_ms;
  std::vector<std::size_t> image_bytes;
  std::vector<std::int64_t> encode_ns;
  std::vector<std::int64_t> decode_ns;
  double hops = 0;
  double rollbacks = 0;
  r.agents = rw->ids().size();
  for (std::size_t i = 0; i < rw->ids().size(); ++i) {
    const auto& out = w.platform.outcome(rw->ids()[i]);
    if (out.state != AgentOutcome::State::done) {
      ++r.violating;
      continue;
    }
    const auto fin = w.platform.decode(out.final_agent);
    const auto visits = fin->data().weak("visits").as_int();
    const bool good = visits == expect.visits &&
                      fin->rollbacks_completed() == expect.rollbacks &&
                      fin->data().weak("touches").as_int() == expect.touches;
    if (!good) ++r.violating;
    hops += static_cast<double>(visits);
    rollbacks += fin->rollbacks_completed();
    latency_ms.push_back(static_cast<double>(out.finished_at - rw->due()[i]) /
                         1000.0);
    if (tracer != nullptr) {
      // Replay the codec on the final image (outside the drive).
      const auto t0 = perf::Tracer::now_ns();
      const auto decoded =
          agent::decode_agent(w.platform.agent_types(), out.final_agent);
      const auto t1 = perf::Tracer::now_ns();
      const auto encoded = agent::encode_agent(*decoded);
      const auto t2 = perf::Tracer::now_ns();
      MAR_CHECK(encoded == out.final_agent);
      decode_ns.push_back(t1 - t0);
      encode_ns.push_back(t2 - t1);
      image_bytes.push_back(out.final_agent.size());
    }
  }

  if (spec.kind == Kind::hot_bank) {
    // Every committed deposit (one per visit after the dispatch noop)
    // landed exactly once.
    std::int64_t total = 0;
    for (int n = 1; n <= spec.nodes; ++n) {
      const auto& accounts = w.committed(n, perf::kBank).at("accounts");
      for (const auto& [name, acc] : accounts.as_map()) {
        total += acc.at("balance").as_int();
      }
    }
    const auto deposits =
        static_cast<std::int64_t>(hops) - static_cast<std::int64_t>(r.agents);
    if (total != deposits) {
      r.invariant_error = "hot_bank: balances sum to " +
                          std::to_string(total) + ", committed deposits " +
                          std::to_string(deposits);
    }
  }
  if (spec.kind == Kind::rollback_crash) {
    // Compensated touches left no entry; every other touch left one.
    std::size_t entries = 0;
    for (int n = 1; n <= spec.nodes; ++n) {
      entries += w.committed(n, perf::kDir).at("entries").as_map().size();
    }
    const auto want = static_cast<std::size_t>(expect.touches) * r.agents;
    if (entries != want) {
      r.invariant_error = "rollback_crash: " + std::to_string(entries) +
                          " directory entries, expected " +
                          std::to_string(want);
    }
  }

  // --- deterministic metrics ---------------------------------------------------
  const auto snap = w.platform.metrics_snapshot();
  const auto sc = [&snap](const char* name) -> double {
    const auto it = snap.scalars.find(name);
    return it == snap.scalars.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto hist = [&snap](const char* name, double p) -> double {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end()
               ? 0.0
               : static_cast<double>(it->second.percentile(p));
  };
  const auto& net = w.net.stats();
  auto& d = r.det;
  d["agents"] = static_cast<double>(r.agents);
  d["hops"] = hops;
  d["violating"] = static_cast<double>(r.violating);
  d["agent_sim_p50_ms"] = quantile(latency_ms, 0.50);
  d["agent_sim_p95_ms"] = quantile(latency_ms, 0.95);
  d["wire_bytes_per_hop"] = ratio(static_cast<double>(net.bytes_sent), hops);
  d["syncs_per_hop"] = ratio(sc("storage.sync_batches"), hops);
  d["stable_bytes_per_hop"] = ratio(sc("storage.bytes_written"), hops);
  d["sim.events_per_hop"] =
      ratio(static_cast<double>(w.sim.events_executed()), hops);
  d["agent.hop_sim_p50_us"] = hist("hop.latency_us", 0.50);
  d["agent.hop_sim_p99_us"] = hist("hop.latency_us", 0.99);
  d["agent.queue_wait_sim_p99_us"] = hist("queue.wait_us", 0.99);
  d["agent.step_sim_p99_us"] = hist("step.latency_us", 0.99);
  d["resource.conflicts_per_hop"] =
      ratio(sc("platform.lock_conflict_aborts"), hops);
  d["tx.coordinator_syncs_per_hop"] = ratio(sc("tx.coordinator_syncs"), hops);
  d["tx.participant_syncs_per_hop"] = ratio(sc("tx.participant_syncs"), hops);
  d["tx.pipeline_depth_max"] = sc("tx.pipeline_depth_max");
  d["tx.commit_flush_sim_p50_us"] = hist("commit.flush_us", 0.50);
  d["tx.commit_flush_sim_p99_us"] = hist("commit.flush_us", 0.99);
  d["storage.record_appends_per_hop"] =
      ratio(sc("storage.record_appends"), hops);
  d["storage.record_resets_per_hop"] = ratio(sc("storage.record_resets"), hops);
  d["storage.kv_writes_per_hop"] = ratio(sc("storage.kv_writes"), hops);
  d["storage.log_end_mb"] = log_mb(w, spec.nodes);
  d["storage.replayed_kb_per_recover"] =
      ratio(sc("storage.recovery_replayed_bytes") / 1024.0,
            static_cast<double>(rw->recoveries()));
  d["ship.convoys_per_hop"] = ratio(sc("ship.convoys_sent"), hops);
  d["ship.entries_per_convoy"] =
      ratio(sc("ship.entries_sent"), sc("ship.convoys_sent"));
  d["ship.delta_share"] = ratio(sc("ship.delta_ships"), sc("ship.entries_sent"));
  d["ship.fallbacks_per_hop"] =
      ratio(sc("ship.delta_fallbacks") + sc("ship.need_full_retries"), hops);
  d["ship.payload_bytes_per_hop"] = ratio(sc("ship.wire_payload_bytes"), hops);
  d["net.messages_per_hop"] =
      ratio(static_cast<double>(net.messages_sent), hops);
  // Physical transmissions beyond one per reliable send. A node's sends to
  // itself are never transmitted, so this is a lower bound.
  d["net.retransmit_ratio"] = ratio(
      std::max(0.0, static_cast<double>(net.transmissions) -
                        static_cast<double>(net.messages_sent)),
      static_cast<double>(net.messages_sent));
  d["rollback.transfers_per_rollback"] =
      ratio(sc("platform.rollback_transfers"), rollbacks);
  d["rollback.mixed_ships_per_rollback"] =
      ratio(sc("platform.mixed_ships"), rollbacks);

  if (tracer == nullptr) return r;

  // --- traced-only metrics -----------------------------------------------------
  const auto& ev = tracer->aggregate(SpanName::sim_event);
  const auto& step = tracer->aggregate(SpanName::agent_step);
  const auto& mgr = tracer->aggregate(SpanName::resource_manager);
  const auto& logic = tracer->aggregate(SpanName::resource_logic);
  auto rec = tracer->aggregate(SpanName::storage_recover).durations;
  auto ev_ns = ev.durations;
  d["sim.pending_max"] = static_cast<double>(pending_max);
  d["storage.log_peak_mb"] = log_peak_mb;
  d["serial.image_bytes_p50"] = quantile(image_bytes, 0.50);
  d["agent.attempts_per_hop"] = ratio(static_cast<double>(step.count), hops);
  d["resource.invokes_per_hop"] = ratio(static_cast<double>(mgr.count), hops);
  // No invokes means none was wasted.
  d["resource.useful_invoke_share"] =
      mgr.count == 0 ? 1.0
                     : ratio(static_cast<double>(tracer->ok_invokes()),
                             static_cast<double>(mgr.count));

  auto& h = r.host;
  const double drive_ns = r.drive_s * 1e9;
  h["sim.event_ns_p50"] = quantile(ev_ns, 0.50);
  h["sim.event_ns_p99"] = quantile(ev_ns, 0.99);
  h["core.self_ns_per_hop"] = ratio(static_cast<double>(ev.self_ns), hops);
  h["agent.step_body_ns_per_hop"] =
      ratio(static_cast<double>(step.self_ns), hops);
  h["resource.manager_ns_per_hop"] =
      ratio(static_cast<double>(mgr.self_ns), hops);
  h["resource.logic_ns_per_hop"] =
      ratio(static_cast<double>(logic.self_ns), hops);
  h["storage.recover_us_p50"] = quantile(rec, 0.50) / 1000.0;
  h["storage.recover_us_max"] = quantile(rec, 1.0) / 1000.0;
  h["serial.encode_ns_p50"] = quantile(encode_ns, 0.50);
  h["serial.decode_ns_p50"] = quantile(decode_ns, 0.50);
  h["trace.hops_per_s"] = ratio(hops, r.drive_s);
  h["trace.attributed_share"] =
      ratio(static_cast<double>(ev.total_ns), drive_ns);
  return r;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"hops_per_s", "1/s"},          {"agent_sim_p50_ms", "sim_ms"},
    {"agent_sim_p95_ms", "sim_ms"}, {"wire_bytes_per_hop", "B/hop"},
    {"syncs_per_hop", "1/hop"},     {"stable_bytes_per_hop", "B/hop"},
    {"peak_rss_mb", "MB"},          {"setup_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events_per_hop", "1/hop"},
    {"sim.event_ns_p50", "ns"},
    {"sim.event_ns_p99", "ns"},
    {"sim.pending_max", "count"},
    {"core.self_ns_per_hop", "ns/hop"},
    {"agent.step_body_ns_per_hop", "ns/hop"},
    {"agent.attempts_per_hop", "1/hop"},
    {"agent.hop_sim_p50_us", "sim_us"},
    {"agent.hop_sim_p99_us", "sim_us"},
    {"agent.queue_wait_sim_p99_us", "sim_us"},
    {"agent.step_sim_p99_us", "sim_us"},
    {"resource.invokes_per_hop", "1/hop"},
    {"resource.manager_ns_per_hop", "ns/hop"},
    {"resource.logic_ns_per_hop", "ns/hop"},
    {"resource.conflicts_per_hop", "1/hop"},
    {"resource.useful_invoke_share", "ratio"},
    {"tx.coordinator_syncs_per_hop", "1/hop"},
    {"tx.participant_syncs_per_hop", "1/hop"},
    {"tx.pipeline_depth_max", "count"},
    {"tx.commit_flush_sim_p50_us", "sim_us"},
    {"tx.commit_flush_sim_p99_us", "sim_us"},
    {"storage.record_appends_per_hop", "1/hop"},
    {"storage.record_resets_per_hop", "1/hop"},
    {"storage.kv_writes_per_hop", "1/hop"},
    {"storage.log_peak_mb", "MB"},
    {"storage.log_end_mb", "MB"},
    {"storage.recover_us_p50", "us"},
    {"storage.recover_us_max", "us"},
    {"storage.replayed_kb_per_recover", "KB"},
    {"ship.convoys_per_hop", "1/hop"},
    {"ship.entries_per_convoy", "count"},
    {"ship.delta_share", "ratio"},
    {"ship.fallbacks_per_hop", "1/hop"},
    {"ship.payload_bytes_per_hop", "B/hop"},
    {"serial.image_bytes_p50", "B"},
    {"serial.encode_ns_p50", "ns"},
    {"serial.decode_ns_p50", "ns"},
    {"net.messages_per_hop", "1/hop"},
    {"net.retransmit_ratio", "ratio"},
    {"rollback.transfers_per_rollback", "count"},
    {"rollback.mixed_ships_per_rollback", "count"},
    {"trace.hops_per_s", "1/s"},
    {"trace.attributed_share", "ratio"},
};

double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Full-precision JSON number; non-finite values become null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const std::map<std::string, std::string>& units) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(v) + ", \"unit\": \"" +
           units.at(name) + "\"}";
  }
  return out + "}";
}

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  bool traced = false;
  double seconds = 0;
  double scale = 1;
  std::string json;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mar_perf: " << why << "\n"
            << "usage: mar_perf --workload <local_young|ring_aged|hot_bank|"
               "rollback_crash> --seed <n> [--traced] [--seconds <s>] "
               "[--scale <x>] [--json <out>] [--spans <out.jsonl>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      a.traced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const auto& s : kSpecs) {
        if (val == s.name) a.spec = &s;
      }
      if (a.spec == nullptr) usage("unknown workload " + val);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("bad seed " + val);
      have_seed = true;
    } else if (flag == "--seconds" || flag == "--scale") {
      const double x = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !std::isfinite(x) || x < 0 ||
          (flag == "--scale" && x <= 0)) {
        usage("bad value for " + flag + ": " + val);
      }
      (flag == "--seconds" ? a.seconds : a.scale) = x;
    } else if (flag == "--json") {
      a.json = val;
    } else if (flag == "--spans") {
      a.spans = val;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.spec == nullptr) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!a.spans.empty() && !a.traced) usage("--spans needs --traced");
  return a;
}

bool write_spans(const std::string& path, const perf::Tracer& t) {
  std::ofstream out(path);
  for (const auto& s : t.sample()) {
    out << "{\"name\": \"" << perf::span_name(s.name)
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"hop_index\": " << s.hop_index
        << "}\n";
  }
  return static_cast<bool>(out.flush());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Spec& spec = *args.spec;
#ifdef __GLIBC__
  // Keep freed memory in the process, so set-ups and rounds after the
  // warm-ups reuse pages already touched instead of timing the kernel's
  // page faults (which made host times on a shared machine far noisier).
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif

  const auto begin = Clock::now();
  // A set-up takes milliseconds, so it is timed on its own: back-to-back
  // builds of the round's world, after one warm-up build.
  std::vector<double> setup_s;
  for (std::size_t i = 0; i <= kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    const auto rw = std::make_unique<RoundWorld>(spec, args.seed, args.scale);
    if (i > 0) setup_s.push_back(seconds_since(t0));
  }

  std::vector<Round> rounds;
  double peak_rss_mb = 0;
  double round_s = 0;
  // Start another round only while it should end within --seconds.
  do {
    const auto round_begin = Clock::now();
    perf::Tracer tracer(rounds.empty() && !args.spans.empty() ? kSpanSampleCap
                                                              : 0);
    rounds.push_back(run_round(spec, args.seed, args.scale,
                               args.traced ? &tracer : nullptr));
    if (rounds.size() == 1) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
      if (!args.spans.empty() && !write_spans(args.spans, tracer)) {
        std::cerr << "mar_perf: cannot write " << args.spans << "\n";
        return 2;
      }
    }
    round_s = seconds_since(round_begin);
  } while (rounds.back().invariant_error.empty() &&
           seconds_since(begin) + round_s <= args.seconds);

  // --- checks ------------------------------------------------------------------
  const Round& first = rounds.front();
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    attempted += r.agents;
    failed += r.violating;
    if (!r.invariant_error.empty()) errors.push_back(r.invariant_error);
    if (r.det != first.det) {
      errors.push_back("round " + std::to_string(i) +
                       " did not reproduce round 0's deterministic metrics");
    }
  }
  if (failed > 0) {
    errors.push_back(std::to_string(failed) + " of " +
                     std::to_string(attempted) + " agents violated");
  }

  // --- metrics -------------------------------------------------------------------
  std::map<std::string, std::string> units;
  for (const auto& m : kEndToEnd) units[m.name] = m.unit;
  for (const auto& m : kPerLayer) units[m.name] = m.unit;

  // A round that failed early lacks values; they read as NaN below.
  const auto det_of = [](const Round& r, const std::string& name) {
    const auto it = r.det.find(name);
    return it == r.det.end() ? std::nan("") : it->second;
  };
  // Round 0 warms the allocator and caches; its host times count only
  // when it is the sole round.
  const std::size_t timed_from = rounds.size() > 1 ? 1 : 0;
  std::vector<double> round_hops_per_s;
  std::vector<double> hops_per_s;
  std::map<std::string, std::vector<double>> host;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    round_hops_per_s.push_back(ratio(det_of(r, "hops"), r.drive_s));
    if (i < timed_from) continue;
    hops_per_s.push_back(round_hops_per_s.back());
    for (const auto& [name, v] : r.host) host[name].push_back(v);
  }
  std::map<std::string, double> e2e;
  e2e["hops_per_s"] = median(hops_per_s);
  e2e["setup_s"] = median(setup_s);
  e2e["peak_rss_mb"] = peak_rss_mb;
  for (const auto& m : kEndToEnd) {
    if (!e2e.contains(m.name)) e2e[m.name] = det_of(first, m.name);
  }
  std::map<std::string, double> layers;
  if (args.traced) {
    for (const auto& m : kPerLayer) {
      layers[m.name] = host.contains(m.name) ? median(host.at(m.name))
                                             : det_of(first, m.name);
    }
  }
  for (const auto& [name, v] : e2e) {
    if (!std::isfinite(v)) errors.push_back(name + " is not finite");
  }
  for (const auto& [name, v] : layers) {
    if (!std::isfinite(v)) errors.push_back(name + " is not finite");
  }
  const bool ok = errors.empty();

  // --- output --------------------------------------------------------------------
  std::printf("mar_perf %s seed %llu%s: %zu round(s), %llu agents/round\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.traced ? " (traced)" : "", rounds.size(),
              static_cast<unsigned long long>(first.agents));
  const auto print = [&units](const std::map<std::string, double>& m) {
    for (const auto& [name, v] : m) {
      std::printf("  %-34s %16.6g %s\n", name.c_str(), v,
                  units.at(name).c_str());
    }
  };
  print(e2e);
  if (args.traced) {
    std::printf("per layer:\n");
    print(layers);
  }
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("%s\n", ok ? "ok" : "FAILED");

  if (!args.json.empty()) {
    std::string det = "{";
    for (const auto& [name, v] : first.det) {
      if (det.size() > 1) det += ", ";
      det += "\"" + name + "\": " + num(v);
    }
    det += "}";
    std::string per_round = "[";
    for (const double v : round_hops_per_s) {
      per_round += (per_round.size() > 1 ? ", " : "") + num(v);
    }
    per_round += "]";
    std::ofstream out(args.json);
    out << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
        << ", \"traced\": " << (args.traced ? "true" : "false")
        << ", \"scale\": " << num(args.scale)
        << ", \"rounds\": " << rounds.size() << ", \"ok\": "
        << (ok ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed
        << ", \"metrics\": " << metrics_json(e2e, units)
        << ", \"layers\": " << metrics_json(layers, units)
        << ", \"round_hops_per_s\": " << per_round
        << ", \"deterministic\": " << det << "}\n";
    if (!out.flush()) {
      std::cerr << "mar_perf: cannot write " << args.json << "\n";
      return 2;
    }
  }
  return ok ? 0 : 1;
}
