// The benchmark's own agent type, compensations and resources.
//
// They mirror the harness steps of the same meaning but live here, so the
// benchmark reaches the library only through its public registration
// points (agent_types(), compensations(), resources().add_resource) and
// later refactors of src/harness cannot move the measured work.
#pragma once

#include <memory>
#include <string>

#include "agent/agent.h"
#include "agent/platform.h"
#include "agent/step_context.h"
#include "resource/resource.h"

namespace mar::perf {

inline constexpr const char* kBank = "perf.bank";
inline constexpr const char* kDir = "perf.dir";

/// Steps (each first counts one committed execution in weak "visits"):
///   spend        weak "cash" -= 1, one agent compensation entry carrying
///                a 64-byte pad; one service unit, no resource
///   deposit_hot  deposit 1 into the perf.bank account named by the next
///                entry of weak "draws" (by visit); logs the withdraw
///   touch_split  publish an agent-unique perf.dir key; logs a resource
///                entry (remove) plus an agent entry (touches -= 1)
///   touch_mixed  the same effect with one mixed entry, which forces an
///                agent transfer during rollback
///   noop         requests a rollback of its sub-itinerary when weak
///                "rollback" is 1 and the agent was never rolled back
class PerfAgent final : public agent::Agent {
 public:
  PerfAgent();

  [[nodiscard]] std::string type_name() const override { return "perf"; }
  void run_step(const std::string& step, agent::StepContext& ctx) override;
};

/// Register PerfAgent and its compensating operations with a platform.
void register_perf(agent::Platform& platform);

/// Wraps a resource so the traced run can time its logic as the
/// resource.logic span. `initial` replaces the inner initial state (the
/// benchmark seeds accounts this way).
class TimedResource final : public resource::Resource {
 public:
  TimedResource(std::unique_ptr<resource::Resource> inner,
                resource::Value initial)
      : inner_(std::move(inner)), initial_(std::move(initial)) {}

  [[nodiscard]] std::string type_name() const override {
    return inner_->type_name();
  }
  [[nodiscard]] resource::Value initial_state() const override {
    return initial_;
  }
  [[nodiscard]] resource::KeySet key_set(
      std::string_view op, const resource::Value& params) const override;
  Result<resource::Value> invoke(std::string_view op,
                                 const resource::Value& params,
                                 resource::Value& state) override;

 private:
  std::unique_ptr<resource::Resource> inner_;
  resource::Value initial_;
};

}  // namespace mar::perf
