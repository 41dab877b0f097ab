#include "common.h"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/check.h"

namespace mar::bench {

// --------------------------------------------------------------------------
// JSON output
// --------------------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonRecord& JsonRecord::raw(std::string_view key, std::string rendered) {
  fields_.emplace_back(std::string(key), std::move(rendered));
  return *this;
}

JsonRecord& JsonRecord::set(std::string_view key, std::uint64_t v) {
  return raw(key, std::to_string(v));
}
JsonRecord& JsonRecord::set(std::string_view key, std::int64_t v) {
  return raw(key, std::to_string(v));
}
JsonRecord& JsonRecord::set(std::string_view key, int v) {
  return raw(key, std::to_string(v));
}
JsonRecord& JsonRecord::set(std::string_view key, double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  MAR_CHECK(ec == std::errc{});
  return raw(key, std::string(buf, end));
}
JsonRecord& JsonRecord::set(std::string_view key, bool v) {
  return raw(key, v ? "true" : "false");
}
JsonRecord& JsonRecord::set(std::string_view key, std::string_view v) {
  return raw(key, '"' + json_escape(v) + '"');
}

std::string JsonRecord::to_json() const {
  std::string out = "{";
  for (const auto& [key, rendered] : fields_) {
    if (out.size() > 1) out += ", ";
    out += '"' + json_escape(key) + "\": " + rendered;
  }
  return out + "}";
}

JsonRecord& BenchReport::row() { return rows_.emplace_back(); }

std::string BenchReport::to_json() const {
  std::string out = "{\"bench\": \"" + json_escape(name_) + "\", \"ok\": ";
  out += ok_ ? "true" : "false";
  out += ", \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\n  " + rows_[i].to_json();
  }
  return out + "\n]}\n";
}

bool BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  out << to_json();
  out.flush();  // surface buffered-write errors (ENOSPC) before the check
  if (!out) {
    std::cerr << "failed to write JSON report to " << path << "\n";
    return false;
  }
  return true;
}

std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" || arg == "--json=") {
      if (arg == "--json" && i + 1 < argc) return argv[i + 1];
      std::cerr << "error: --json requires a path\n";
      std::exit(2);
    }
    if (arg.starts_with("--json=")) return std::string(arg.substr(7));
  }
  return "";
}

JsonRecord& Metrics::write_fields(JsonRecord& out) const {
  out.set("ok", ok)
      .set("total_us", total_us)
      .set("forward_us", forward_us)
      .set("rollback_us", rollback_us)
      .set("rollback_wire_bytes", rollback_wire_bytes)
      .set("total_wire_bytes", total_wire_bytes)
      .set("rollback_transfers", rollback_transfers)
      .set("mixed_ships", mixed_ships)
      .set("comp_commits", comp_commits)
      .set("stable_bytes", stable_bytes)
      .set("crashes", crashes)
      .set("final_log_bytes", final_log_bytes);
  return out;
}

std::string Metrics::to_json() const {
  JsonRecord rec;
  return write_fields(rec).to_json();
}

Metrics run_rollback_scenario(const RollbackScenario& s) {
  harness::TestWorld w(s.config, /*node_count=*/s.steps + 1, s.seed);
  harness::register_workload(w.platform);

  auto agent = std::make_unique<harness::WorkloadAgent>();
  agent::Itinerary sub;
  // Deterministically interleave mixed and split steps at the requested
  // fraction (error-diffusion so e.g. 0.5 alternates).
  double acc = 0.0;
  for (int i = 0; i < s.steps; ++i) {
    acc += s.mixed_fraction;
    const bool mixed = acc >= 1.0 - 1e-9;
    if (mixed) acc -= 1.0;
    sub.step(mixed ? "touch_mixed" : "touch_split",
             harness::TestWorld::n(i + 1));
    if (s.strong_bytes > 0) {
      sub.step("grow_strong", harness::TestWorld::n(i + 1));
    }
  }
  sub.step("noop", harness::TestWorld::n(s.steps + 1));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(sub));
  agent->itinerary() = std::move(main_itinerary);

  const std::int64_t visits_per_step = s.strong_bytes > 0 ? 2 : 1;
  agent->set_trigger("noop", s.steps * visits_per_step + 1, "sub", 0);
  agent->set_config("param_bytes", s.param_bytes);
  agent->set_config("strong_bytes", s.strong_bytes);

  if (s.inject_faults) {
    Rng rng(s.seed * 7919 + 13);
    net::FaultInjector::CrashPlan plan;
    plan.mean_time_between_crashes_us = s.mean_time_between_crashes_us;
    plan.mean_downtime_us = s.mean_downtime_us;
    plan.horizon_us = s.fault_horizon_us;
    w.faults.random_crashes(w.net.node_ids(), rng, plan);
  }

  auto id = w.platform.launch(std::move(agent));
  MAR_CHECK(id.is_ok());

  Metrics m;
  // Phase 1: run until the rollback is initiated.
  const bool initiated = w.sim.run_while_pending(
      [&] { return w.platform.spans().count(EventKind::rollback_begin) > 0; });
  if (!initiated) return m;
  m.forward_us = w.sim.now();
  const auto wire_at_rollback = w.net.stats().bytes_sent;
  const auto transfers_at_rollback = w.platform.rollback_transfers();

  // Phase 2: run until the target savepoint is restored.
  const bool rolled_back = w.sim.run_while_pending(
      [&] { return w.platform.spans().count(EventKind::rollback_done) > 0; });
  if (!rolled_back) return m;
  m.rollback_us = w.sim.now() - m.forward_us;
  m.rollback_wire_bytes = w.net.stats().bytes_sent - wire_at_rollback;
  m.rollback_transfers =
      w.platform.rollback_transfers() - transfers_at_rollback;
  m.mixed_ships = w.platform.mixed_ships();

  // Phase 3: run to completion (re-execution after the rollback).
  if (!w.platform.run_until_finished(id.value())) return m;
  const auto& outcome = w.platform.outcome(id.value());
  m.ok = outcome.state == agent::AgentOutcome::State::done;
  m.total_us = outcome.finished_at;
  m.total_wire_bytes = w.net.stats().bytes_sent;
  m.comp_commits = w.platform.spans().count(EventKind::comp_commit);
  m.crashes = w.faults.crashes_injected();
  for (const auto node : w.net.node_ids()) {
    m.stable_bytes += w.platform.node(node).storage().stats().bytes_written;
  }
  auto fin = w.platform.decode(outcome.final_agent);
  m.final_log_bytes = fin->log().byte_size();
  return m;
}

std::string fmt(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

}  // namespace mar::bench
