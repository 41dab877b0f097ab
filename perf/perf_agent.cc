#include "perf_agent.h"

#include "tracer.h"
#include "util/check.h"

namespace mar::perf {

using serial::Value;

namespace {

/// Undo payload of a `spend` step.
constexpr std::size_t kSpendUndoBytes = 64;
/// Value published by a `touch_*` step.
constexpr std::size_t kTouchBytes = 32;

Value map_of(std::initializer_list<std::pair<const char*, Value>> kv) {
  Value v = Value::empty_map();
  for (const auto& [k, val] : kv) v.set(k, val);
  return v;
}

/// `ctx` is a StepContext or a CompensationContext.
template <typename Ctx>
Result<Value> timed_invoke(Ctx& ctx, const std::string& res,
                           std::string_view op, const Value& params) {
  const Scope span(SpanName::resource_manager);
  auto r = ctx.invoke(res, op, params);
  if (active != nullptr && r.is_ok()) active->count_ok_invoke();
  return r;
}

/// Removing an entry that is already gone is fine on a retried
/// compensation transaction.
Status remove_entry(rollback::CompensationContext& ctx) {
  auto r = timed_invoke(ctx, kDir, "remove",
                        map_of({{"key", ctx.params().at("key")}}));
  if (!r.is_ok() && r.code() != Errc::not_found) return r.status();
  return Status::ok();
}

}  // namespace

PerfAgent::PerfAgent() {
  data().declare_weak("visits", std::int64_t{0});
  data().declare_weak("cash", std::int64_t{0});
  data().declare_weak("touches", std::int64_t{0});
  data().declare_weak("draws", Value::empty_list());
  data().declare_weak("rollback", std::int64_t{0});
}

void PerfAgent::run_step(const std::string& step, agent::StepContext& ctx) {
  const Scope span(SpanName::agent_step);
  auto& visits = data().weak("visits");
  visits = visits.as_int() + 1;

  if (step == "spend") {
    ctx.charge_service(1);
    data().weak("cash") = data().weak("cash").as_int() - 1;
    ctx.log_agent_compensation(
        "perf.counter_add",
        map_of({{"slot", Value("cash")},
                {"amount", Value(1)},
                {"pad", Value(serial::Bytes(kSpendUndoBytes, 0xC3))}}));
    return;
  }

  if (step == "deposit_hot") {
    const auto& draws = data().weak("draws").as_list();
    MAR_CHECK_MSG(!draws.empty(), "deposit_hot needs weak draws");
    const auto idx =
        static_cast<std::size_t>(visits.as_int() - 1) % draws.size();
    const Value params = map_of(
        {{"account", Value("a" + std::to_string(draws[idx].as_int()))},
         {"amount", Value(1)}});
    // A lock conflict fails the invoke; the platform aborts and restarts
    // the step.
    if (!timed_invoke(ctx, kBank, "deposit", params).is_ok()) return;
    ctx.log_resource_compensation(kBank, "perf.withdraw", params);
    return;
  }

  if (step == "touch_split" || step == "touch_mixed") {
    const Value key(std::to_string(id().value()) + "-" +
                    std::to_string(visits.as_int()));
    auto r = timed_invoke(
        ctx, kDir, "publish",
        map_of({{"key", key},
                {"value", Value(serial::Bytes(kTouchBytes, 0xAB))}}));
    if (!r.is_ok()) return;
    data().weak("touches") = data().weak("touches").as_int() + 1;
    if (step == "touch_mixed") {
      ctx.log_mixed_compensation(kDir, "perf.untouch", map_of({{"key", key}}));
    } else {
      ctx.log_resource_compensation(kDir, "perf.unpublish",
                                    map_of({{"key", key}}));
      ctx.log_agent_compensation(
          "perf.counter_add",
          map_of({{"slot", Value("touches")}, {"amount", Value(-1)}}));
    }
    return;
  }

  if (step == "noop") {
    if (data().weak("rollback").as_int() == 1 && rollbacks_completed() == 0) {
      ctx.request_rollback_sub_itinerary(0);
    }
    return;
  }

  MAR_CHECK_MSG(false, "perf agent: unknown step " << step);
}

void register_perf(agent::Platform& platform) {
  platform.agent_types().register_type<PerfAgent>("perf");
  auto& reg = platform.compensations();
  reg.register_op("perf.counter_add", [](rollback::CompensationContext& ctx) {
    auto& slot = ctx.weak(ctx.params().at("slot").as_string());
    slot = slot.as_int() + ctx.params().at("amount").as_int();
    return Status::ok();
  });
  reg.register_op("perf.withdraw", [](rollback::CompensationContext& ctx) {
    return timed_invoke(ctx, kBank, "withdraw", ctx.params()).status();
  });
  reg.register_op("perf.unpublish", remove_entry);
  reg.register_op("perf.untouch", [](rollback::CompensationContext& ctx) {
    MAR_RETURN_IF_ERROR(remove_entry(ctx));
    auto& touches = ctx.weak("touches");
    touches = touches.as_int() - 1;
    return Status::ok();
  });
}

resource::KeySet TimedResource::key_set(std::string_view op,
                                        const resource::Value& params) const {
  const Scope span(SpanName::resource_logic);
  return inner_->key_set(op, params);
}

Result<resource::Value> TimedResource::invoke(std::string_view op,
                                              const resource::Value& params,
                                              resource::Value& state) {
  const Scope span(SpanName::resource_logic);
  return inner_->invoke(op, params, state);
}

}  // namespace mar::perf
