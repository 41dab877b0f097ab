#include "harness/agents.h"

#include "resource/mint.h"
#include "util/check.h"

namespace mar::harness {

using serial::Value;

WorkloadAgent::WorkloadAgent() {
  data().declare_strong("results", Value::empty_list());
  data().declare_weak("visits", std::int64_t{0});
  data().declare_weak("cash", std::int64_t{0});
  data().declare_weak("wallet", Value::empty_list());
  data().declare_weak("cash_eur", std::int64_t{0});
  data().declare_weak("withdrawn", std::int64_t{0});
  data().declare_weak("orders", Value::empty_list());
  data().declare_weak("credit_notes", Value::empty_list());
  data().declare_weak("last_sp", std::int64_t{0});
  data().declare_weak("touches", std::int64_t{0});
  data().declare_weak("trigger", Value::empty_map());
}

void WorkloadAgent::set_trigger(const std::string& step, std::int64_t at_visit,
                                const std::string& mode, std::int64_t arg) {
  Value t = Value::empty_map();
  t.set("step", step);
  t.set("at", at_visit);
  t.set("mode", mode);
  t.set("arg", arg);
  data().weak("trigger") = std::move(t);
}

void WorkloadAgent::maybe_trigger(const std::string& step,
                                  agent::StepContext& ctx) {
  // Unconditional permanent failure of every noop step (drives the
  // alternatives tests, where several options must fail in turn —
  // regardless of the one-shot rollback gate below).
  if (step == "noop" &&
      data().weak("trigger").get_or("fail_all_noops", std::int64_t{0})
              .as_int() == 1) {
    ctx.fail_step(Status(Errc::forbidden, "noop configured to fail"));
    return;
  }
  // Triggers are one-shot: after a completed rollback the re-executed
  // steps may hit the same (step, visit-count) condition again — the
  // weakly reversible visit counter is deliberately not compensated —
  // and re-requesting the rollback forever would livelock the agent.
  // rollbacks_completed() is the platform's "you have been rolled back"
  // signal (Sec. 3.2's "changed situation").
  if (rollbacks_completed() > 0) return;
  const Value& t = data().weak("trigger");
  if (!t.has("step")) return;
  if (t.at("step").as_string() != step) return;
  if (t.at("at").as_int() != data().weak("visits").as_int()) return;
  const auto& mode = t.at("mode").as_string();
  if (mode == "sub") {
    ctx.request_rollback_sub_itinerary(
        static_cast<std::uint32_t>(t.at("arg").as_int()));
  } else if (mode == "abandon") {
    ctx.request_abandon_sub_itinerary(
        static_cast<std::uint32_t>(t.at("arg").as_int()));
  } else if (mode == "fail") {
    ctx.fail_step(Status(Errc::forbidden, "configured permanent failure"));
  } else if (mode == "last_sp") {
    ctx.request_rollback(SavepointId(
        static_cast<std::uint32_t>(data().weak("last_sp").as_int())));
  } else {
    ctx.request_rollback(
        SavepointId(static_cast<std::uint32_t>(t.at("arg").as_int())));
  }
}

void WorkloadAgent::run_step(const std::string& step,
                             agent::StepContext& ctx) {
  auto& visits = data().weak("visits");
  visits = visits.as_int() + 1;
  maybe_trigger(step, ctx);

  // E4/E5 baseline: an ad-hoc savepoint after every step (the log-size
  // worst case the itinerary integration of Sec. 4.4.2 improves on).
  if (data().weak("trigger").get_or("sp_every_step", std::int64_t{0})
          .as_int() == 1 &&
      step != "savepoint") {
    const auto id = ctx.establish_savepoint();
    data().weak("last_sp") = static_cast<std::int64_t>(id.value());
  }

  auto params = [](std::initializer_list<std::pair<std::string, Value>> kv) {
    Value v = Value::empty_map();
    for (auto& [k, val] : kv) v.set(k, val);
    return v;
  };

  if (step == "noop") return;

  // Contention-free unit of work: burns `work_ops` resource-op service
  // times without taking any lock, so concurrent slots never conflict —
  // the A4 throughput fleet is built from this.
  if (step == "work") {
    ctx.charge_service(static_cast<std::uint32_t>(
        data().weak("trigger").get_or("work_ops", std::int64_t{1}).as_int()));
    return;
  }

  // Steady-state durability workload (A5): mutate one small weak slot and
  // log a single agent compensation entry padded to `param_bytes` — no
  // resource access, so the only state that grows with agent age is the
  // rollback log the step commit has to make durable.
  if (step == "spend_logged") {
    const auto fill =
        data().weak("trigger").get_or("param_bytes", std::int64_t{32});
    ctx.charge_service(1);  // a unit of real work; advances virtual time
    data().weak("cash") = data().weak("cash").as_int() - 1;
    serial::Value undo = params({{"slot", Value("cash")},
                                 {"amount", Value(1)}});
    undo.set("pad", serial::Value(serial::Bytes(
                        static_cast<std::size_t>(fill.as_int()),
                        std::uint8_t{0xC3})));
    ctx.log_agent_compensation("comp.counter_add", std::move(undo));
    return;
  }

  // Contention workload (A6): a deposit into an account drawn per step
  // from the pre-assigned "hot_accounts" sequence. Concurrent slots
  // conflict only when their draws collide on one account; a one-entry
  // list makes every concurrent pair collide.
  if (step == "bank_hot") {
    const Value& cfg = data().weak("trigger");
    MAR_CHECK_MSG(cfg.has("hot_accounts") &&
                      !cfg.at("hot_accounts").as_list().empty(),
                  "bank_hot needs a non-empty hot_accounts list");
    const auto& accounts = cfg.at("hot_accounts").as_list();
    const auto idx =
        static_cast<std::size_t>(visits.as_int() - 1) % accounts.size();
    const std::string account = "a" + std::to_string(accounts[idx].as_int());
    std::int64_t amount = 1;
    if (cfg.has("hot_amounts")) {
      const auto& amounts = cfg.at("hot_amounts").as_list();
      amount = amounts[idx % amounts.size()].as_int();
    }
    auto r = ctx.invoke("bank", "deposit",
                        params({{"account", Value(account)},
                                {"amount", Value(amount)}}));
    if (!r.is_ok()) return;  // e.g. lock conflict: platform restarts us
    ctx.log_resource_compensation(
        "bank", "comp.withdraw",
        params({{"account", Value(account)}, {"amount", Value(amount)}}));
    return;
  }

  if (step == "collect") {
    auto r = ctx.invoke("dir", "lookup", params({{"key", Value("info")}}));
    if (r.is_ok()) {
      data().strong("results").push_back(r.value().at("value"));
    }
    return;
  }

  if (step == "spend_cash") {
    data().weak("cash") = data().weak("cash").as_int() - 25;
    ctx.log_agent_compensation(
        "comp.counter_add",
        params({{"slot", Value("cash")}, {"amount", Value(25)}}));
    return;
  }

  if (step == "withdraw") {
    auto r = ctx.invoke("bank", "withdraw",
                        params({{"account", Value("acct")},
                                {"amount", Value(100)}}));
    if (!r.is_ok()) return;  // e.g. lock conflict: platform restarts us
    ctx.log_resource_compensation(
        "bank", "comp.deposit",
        params({{"account", Value("acct")}, {"amount", Value(100)}}));
    data().weak("cash") = data().weak("cash").as_int() + 100;
    ctx.log_agent_compensation(
        "comp.counter_sub",
        params({{"slot", Value("cash")}, {"amount", Value(100)}}));
    data().weak("withdrawn") = data().weak("withdrawn").as_int() + 100;
    ctx.log_agent_compensation(
        "comp.counter_sub",
        params({{"slot", Value("withdrawn")}, {"amount", Value(100)}}));
    return;
  }

  if (step == "deposit") {
    auto r = ctx.invoke("bank", "deposit",
                        params({{"account", Value("acct")},
                                {"amount", Value(50)}}));
    if (!r.is_ok()) return;
    // Sec. 3.2: compensating a deposit is a withdraw that may fail.
    ctx.log_resource_compensation(
        "bank", "comp.withdraw",
        params({{"account", Value("acct")}, {"amount", Value(50)}}));
    data().weak("cash") = data().weak("cash").as_int() - 50;
    ctx.log_agent_compensation(
        "comp.counter_add",
        params({{"slot", Value("cash")}, {"amount", Value(50)}}));
    return;
  }

  if (step == "fund") {
    auto r = ctx.invoke("mint", "issue",
                        params({{"currency", Value("USD")},
                                {"value", Value(20)},
                                {"count", Value(5)}}));
    MAR_CHECK(r.is_ok());
    data().weak("wallet") = r.value().at("coins");
    ctx.log_mixed_compensation("mint", "comp.unfund",
                               params({{"mint", Value("mint")}}));
    return;
  }

  if (step == "exchange") {
    const auto amount = data().weak("cash").as_int();
    if (amount <= 0) return;
    auto converted = ctx.invoke("exchange", "convert",
                                params({{"from", Value("USD")},
                                        {"to", Value("EUR")},
                                        {"amount", Value(amount)}}));
    if (!converted.is_ok()) return;
    data().weak("cash") = std::int64_t{0};
    data().weak("cash_eur") = converted.value().at("out");
    // The paper's mixed-compensation example (Sec. 4.4.1): changing the
    // money back needs the current EUR amount (weak agent state, known
    // only at compensation time) AND the exchange (resource state).
    ctx.log_mixed_compensation(
        "exchange", "comp.unexchange",
        params({{"exchange", Value("exchange")},
                {"from", Value("EUR")},
                {"to", Value("USD")}}));
    return;
  }

  if (step == "buy") {
    auto r = ctx.invoke("shop", "buy",
                        params({{"item", Value("widget")},
                                {"qty", Value(1)},
                                {"payment", data().weak("cash")},
                                {"now", Value(static_cast<std::int64_t>(
                                            ctx.now_us()))}}));
    if (!r.is_ok()) return;  // e.g. out of stock: agent moves on
    const auto cost = r.value().at("cost").as_int();
    data().weak("cash") = data().weak("cash").as_int() - cost;
    Value order = Value::empty_map();
    order.set("order", r.value().at("order"));
    order.set("paid", cost);
    data().weak("orders").push_back(std::move(order));
    ctx.log_mixed_compensation(
        "shop", "comp.cancel_buy",
        params({{"shop", Value("shop")}, {"order", r.value().at("order")}}));
    return;
  }

  // Parameterized steps for the benchmark harness: publish a filler blob
  // into the local directory and log its undo either as a mixed entry
  // (forces an agent transfer during rollback) or as a split RCE + ACE
  // pair (optimized rollback handles it without moving the agent).
  if (step == "touch_mixed" || step == "touch_split" ||
      step == "touch_plain") {
    const Value& cfg = data().weak("trigger");
    const auto fill = cfg.get_or("param_bytes", std::int64_t{32});
    const std::string key = "touch-" + std::to_string(visits.as_int());
    serial::Value blob(serial::Bytes(
        static_cast<std::size_t>(fill.as_int()), std::uint8_t{0xAB}));
    auto r = ctx.invoke("dir", "publish",
                        params({{"key", Value(key)}, {"value", blob}}));
    if (!r.is_ok()) return;
    data().weak("touches") = data().weak("touches").as_int() + 1;
    if (step == "touch_plain") return;  // exactly-once only, no undo info
    serial::Value undo = params({{"key", Value(key)}, {"pad", blob}});
    if (step == "touch_mixed") {
      ctx.log_mixed_compensation("dir", "comp.untouch", std::move(undo));
    } else {
      // Multiplicity knobs let the concurrency experiment scale the RCE
      // and ACE counts per step independently.
      const auto rces = cfg.get_or("rce_per_step", std::int64_t{1}).as_int();
      const auto aces = cfg.get_or("ace_per_step", std::int64_t{1}).as_int();
      for (std::int64_t i = 0; i < rces; ++i) {
        ctx.log_resource_compensation("dir", "comp.remove_entry", undo);
      }
      for (std::int64_t i = 0; i < aces; ++i) {
        ctx.log_agent_compensation(
            "comp.counter_sub",
            params({{"slot", Value("touches")}, {"amount", Value(1)}}));
      }
      // Keep the counter consistent with the number of ACE undos logged.
      data().weak("touches") =
          data().weak("touches").as_int() + (aces - 1);
    }
    return;
  }

  // Mutate `mutate_count` entries of a strong register file of
  // `strong_entries` blobs (drives the state-vs-transition experiment E5:
  // transition logging wins when the per-savepoint mutated fraction is
  // small).
  if (step == "mutate_strong") {
    const Value& cfg = data().weak("trigger");
    const auto entries = cfg.get_or("strong_entries", std::int64_t{16}).as_int();
    const auto mutate = cfg.get_or("mutate_count", std::int64_t{1}).as_int();
    const auto blob = cfg.get_or("strong_bytes", std::int64_t{64}).as_int();
    auto& reg = data().strong("results");
    if (!reg.is_map()) reg = Value::empty_map();
    for (std::int64_t i = 0; i < entries; ++i) {
      const std::string key = "r" + std::to_string(i);
      if (!reg.has(key)) {
        reg.set(key, serial::Bytes(static_cast<std::size_t>(blob),
                                   std::uint8_t{0}));
      }
    }
    for (std::int64_t i = 0; i < mutate; ++i) {
      const auto slot = (visits.as_int() * mutate + i) % entries;
      reg.set("r" + std::to_string(slot),
              serial::Bytes(static_cast<std::size_t>(blob),
                            static_cast<std::uint8_t>(visits.as_int())));
    }
    return;
  }

  // Append a filler blob to the strongly reversible results (drives the
  // savepoint-size experiments).
  if (step == "grow_strong") {
    const auto fill =
        data().weak("trigger").get_or("strong_bytes", std::int64_t{64});
    data().strong("results").push_back(serial::Value(serial::Bytes(
        static_cast<std::size_t>(fill.as_int()), std::uint8_t{0x5A})));
    return;
  }

  // Append a filler blob to a weakly reversible list (makes the agent's
  // weak-state snapshot — which the adaptive strategy would ship twice —
  // expensive, tilting the ref [16] decision towards migration).
  if (step == "grow_weak") {
    const auto fill =
        data().weak("trigger").get_or("weak_bytes", std::int64_t{64});
    data().weak("wallet").push_back(serial::Value(serial::Bytes(
        static_cast<std::size_t>(fill.as_int()), std::uint8_t{0xA5})));
    ctx.log_agent_compensation("comp.pop_list",
                               params({{"slot", Value("wallet")}}));
    return;
  }

  if (step == "savepoint") {
    const auto id = ctx.establish_savepoint();
    data().weak("last_sp") = static_cast<std::int64_t>(id.value());
    return;
  }

  if (step == "poison") {
    auto r = ctx.invoke(
        "dir", "publish",
        params({{"key", Value("destructive")}, {"value", Value(1)}}));
    MAR_CHECK(r.is_ok());
    ctx.mark_not_compensatable();
    return;
  }

  MAR_CHECK_MSG(false, "workload agent: unknown step " << step);
}

void register_workload(agent::Platform& platform) {
  platform.agent_types().register_type<WorkloadAgent>("workload");
  auto& reg = platform.compensations();

  reg.register_op("comp.deposit", [](rollback::CompensationContext& ctx) {
    return ctx.invoke("bank", "deposit", ctx.params()).status();
  });
  reg.register_op("comp.withdraw", [](rollback::CompensationContext& ctx) {
    return ctx.invoke("bank", "withdraw", ctx.params()).status();
  });
  reg.register_op("comp.counter_add", [](rollback::CompensationContext& ctx) {
    auto& slot = ctx.weak(ctx.params().at("slot").as_string());
    slot = slot.as_int() + ctx.params().at("amount").as_int();
    return Status::ok();
  });
  reg.register_op("comp.pop_list", [](rollback::CompensationContext& ctx) {
    auto& slot = ctx.weak(ctx.params().at("slot").as_string());
    auto& list = slot.as_list();
    if (list.empty()) {
      return Status(Errc::compensation_failed, "pop_list: list is empty");
    }
    list.pop_back();
    return Status::ok();
  });
  reg.register_op("comp.counter_sub", [](rollback::CompensationContext& ctx) {
    auto& slot = ctx.weak(ctx.params().at("slot").as_string());
    slot = slot.as_int() - ctx.params().at("amount").as_int();
    return Status::ok();
  });
  reg.register_op("comp.unfund", [](rollback::CompensationContext& ctx) {
    auto& wallet = ctx.weak("wallet");
    if (!wallet.as_list().empty()) {
      serial::Value p = serial::Value::empty_map();
      p.set("coins", resource::Mint::wallet_serials(wallet));
      auto r = ctx.invoke(ctx.params().at("mint").as_string(), "redeem", p);
      if (!r.is_ok()) return r.status();
    }
    wallet = serial::Value::empty_list();
    return Status::ok();
  });
  reg.register_op("comp.unexchange", [](rollback::CompensationContext& ctx) {
    // Mixed: reads the agent's current EUR holdings AND the resource.
    auto& eur = ctx.weak("cash_eur");
    const auto amount = eur.as_int();
    if (amount <= 0) return Status::ok();
    serial::Value cp = serial::Value::empty_map();
    cp.set("from", ctx.params().at("from"));
    cp.set("to", ctx.params().at("to"));
    cp.set("amount", amount);
    auto converted =
        ctx.invoke(ctx.params().at("exchange").as_string(), "convert", cp);
    if (!converted.is_ok()) return converted.status();
    eur = std::int64_t{0};
    auto& cash = ctx.weak("cash");
    // The round trip may not restore the exact amount (spread/rounding):
    // state-equivalent compensation, not identity (Sec. 3.2).
    cash = cash.as_int() + converted.value().at("out").as_int();
    return Status::ok();
  });
  reg.register_op("comp.remove_entry", [](rollback::CompensationContext& ctx) {
    serial::Value p = serial::Value::empty_map();
    p.set("key", ctx.params().at("key"));
    auto r = ctx.invoke("dir", "remove", p);
    // Removing an already-absent entry is acceptable on retry.
    if (!r.is_ok() && r.code() != Errc::not_found) return r.status();
    return Status::ok();
  });
  reg.register_op("comp.untouch", [](rollback::CompensationContext& ctx) {
    serial::Value p = serial::Value::empty_map();
    p.set("key", ctx.params().at("key"));
    auto r = ctx.invoke("dir", "remove", p);
    if (!r.is_ok() && r.code() != Errc::not_found) return r.status();
    auto& touches = ctx.weak("touches");
    touches = touches.as_int() - 1;
    return Status::ok();
  });
  reg.register_op("comp.cancel_buy", [](rollback::CompensationContext& ctx) {
    serial::Value p = serial::Value::empty_map();
    p.set("order", ctx.params().at("order"));
    p.set("now", static_cast<std::int64_t>(ctx.now_us()));
    auto r = ctx.invoke(ctx.params().at("shop").as_string(), "cancel", p);
    if (!r.is_ok()) return r.status();
    // Integrate the refund into the agent's private data: cash or a
    // credit note, per the shop's time-dependent policy (Sec. 3.2).
    if (r.value().at("mode").as_string() == "cash") {
      auto& cash = ctx.weak("cash");
      cash = cash.as_int() + r.value().at("refund").as_int();
    } else {
      ctx.weak("credit_notes").push_back(r.value().at("refund"));
    }
    auto& orders = ctx.weak("orders").as_list();
    const auto id = ctx.params().at("order").as_int();
    std::erase_if(orders, [id](const serial::Value& o) {
      return o.at("order").as_int() == id;
    });
    return Status::ok();
  });
}

}  // namespace mar::harness
