#include "net/fault_injector.h"

namespace mar::net {

void FaultInjector::crash_at(NodeId node, sim::TimeUs at,
                             sim::TimeUs downtime) {
  // The injected faults always happen: each timer is a one-shot.
  sim_.schedule_at(at, [this, node] {  // mar-lint: one-shot
    ++crashes_;
    net_.crash_node(node);
  });
  sim_.schedule_at(at + downtime,  // mar-lint: one-shot
                   [this, node] { net_.recover_node(node); });
}

void FaultInjector::link_down_at(NodeId a, NodeId b, sim::TimeUs at,
                                 sim::TimeUs duration) {
  sim_.schedule_at(at,  // mar-lint: one-shot
                   [this, a, b] { net_.set_link_up(a, b, false); });
  sim_.schedule_at(at + duration,  // mar-lint: one-shot
                   [this, a, b] { net_.set_link_up(a, b, true); });
}

void FaultInjector::random_crashes(const std::vector<NodeId>& nodes, Rng& rng,
                                   const CrashPlan& plan) {
  for (const auto node : nodes) {
    sim::TimeUs t = 0;
    for (;;) {
      t += static_cast<sim::TimeUs>(
          rng.next_exponential(plan.mean_time_between_crashes_us));
      if (t >= plan.horizon_us) break;
      const auto down = std::max<sim::TimeUs>(
          1, static_cast<sim::TimeUs>(
                 rng.next_exponential(plan.mean_downtime_us)));
      crash_at(node, t, down);
      t += down;
    }
  }
}

}  // namespace mar::net
