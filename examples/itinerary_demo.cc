// Itinerary integration demo: Fig. 6 of the paper.
//
// The agent executes the paper's sample hierarchy
//
//   I = [ SI1(s7 s1 s8)  SI2(s2 s3)  SI3( s6  SI4(s5 s4)  SI5(s9 s10) ) ]
//
// and demonstrates the Sec. 4.4.2 machinery:
//   * savepoints are established automatically when sub-itineraries are
//     entered (lightweight when no step ran in between);
//   * during SI4 the agent rolls back the *nested* sub-itinerary SI4 only
//     (aborting s4, compensating s5) — the paper's first scenario;
//   * savepoints of completed sub-itineraries are garbage-collected;
//   * completing a top-level sub-itinerary discards the whole log.
//
// The rollback log is printed after every committed step so the entry
// stream of Fig. 2 can be watched evolving.
#include <iostream>
#include <memory>

#include "agent/agent.h"
#include "agent/node_runtime.h"
#include "agent/platform.h"
#include "agent/step_context.h"
#include "net/network.h"
#include "resource/bank.h"
#include "sim/simulator.h"

using namespace mar;

namespace {

class Fig6Agent final : public agent::Agent {
 public:
  Fig6Agent() {
    data().declare_strong("trail", serial::Value::empty_list());
    data().declare_weak("counter", std::int64_t{0});
    // Counted in s5 (committed before s4 runs) and deliberately not
    // compensated: it must survive the rollback of SI4, otherwise s4
    // would request the same rollback forever.
    data().declare_weak("si4_passes", std::int64_t{0});
  }

  std::string type_name() const override { return "fig6"; }

  void run_step(const std::string& step, agent::StepContext& ctx) override {
    data().strong("trail").push_back(step);
    // Every step bumps a weakly reversible counter and logs its undo.
    auto& counter = data().weak("counter");
    counter = counter.as_int() + 1;
    serial::Value p = serial::Value::empty_map();
    p.set("amount", std::int64_t{1});
    ctx.log_agent_compensation("undo.count", p);

    if (step == "s5") {
      auto& passes = data().weak("si4_passes");
      passes = passes.as_int() + 1;
    }
    if (step == "s4" && data().weak("si4_passes").as_int() == 1) {
      // The paper's scenario: during s4, roll back only SI4 (abort the
      // s4 step transaction and compensate s5).
      std::cout << ">>> s4 requests rollback of sub-itinerary SI4\n";
      ctx.request_rollback_sub_itinerary(/*levels_up=*/0);
    }
  }
};

}  // namespace

int main() {
  sim::Simulator sim;
  net::Network net(sim);
  agent::PlatformConfig config;
  config.logging = agent::LoggingMode::state;
  agent::Platform platform(sim, net, config);
  for (std::uint32_t i = 1; i <= 10; ++i) platform.add_node(NodeId(i));

  platform.agent_types().register_type<Fig6Agent>("fig6");
  platform.compensations().register_op(
      "undo.count", [](rollback::CompensationContext& ctx) {
        auto& counter = ctx.weak("counter");
        counter = counter.as_int() - ctx.params().at("amount").as_int();
        return Status::ok();
      });

  // Fig. 6, with each step s_k on node N_k.
  auto step_node = [](std::uint32_t k) { return NodeId(k); };
  agent::Itinerary si1;
  si1.step("s7", step_node(7)).step("s1", step_node(1)).step("s8",
                                                             step_node(8));
  agent::Itinerary si2;
  si2.step("s2", step_node(2)).step("s3", step_node(3));
  agent::Itinerary si4;
  si4.step("s5", step_node(5)).step("s4", step_node(4));
  agent::Itinerary si5;
  si5.step("s9", step_node(9)).step("s10", step_node(10));
  agent::Itinerary si3;
  si3.step("s6", step_node(6)).sub(std::move(si4)).sub(std::move(si5));
  agent::Itinerary main_itinerary;
  main_itinerary.sub(std::move(si1)).sub(std::move(si2)).sub(std::move(si3));

  auto agent = std::make_unique<Fig6Agent>();
  agent->itinerary() = std::move(main_itinerary);
  std::cout << "itinerary: " << agent->itinerary().to_string() << "\n\n";

  auto id = platform.launch(std::move(agent));
  if (!id.is_ok()) {
    std::cerr << "launch failed: " << id.status() << "\n";
    return 1;
  }

  // Print the rollback log after every committed step (Fig. 2 view).
  std::uint64_t printed = 0;  // span id of the last event shown
  while (!platform.finished(id.value()) && sim.step()) {
    for (const auto& e : platform.spans().of_kind(SpanKind::instant)) {
      if (e.span_id <= printed) continue;
      printed = e.span_id;
      if (e.event == EventKind::step_commit ||
          e.event == EventKind::savepoint || e.event == EventKind::sp_gc ||
          e.event == EventKind::log_discard ||
          e.event == EventKind::rollback_done) {
        std::cout << "[t=" << e.begin_us / 1000 << "ms N" << e.node << "] "
                  << to_string(e.event) << " " << e.note() << "\n";
      }
    }
  }

  const auto& outcome = platform.outcome(id.value());
  auto fin = platform.decode(outcome.final_agent);
  std::cout << "\n--- result ---\n";
  std::cout << "trail:";
  for (const auto& s : fin->data().strong("trail").as_list()) {
    std::cout << " " << s.as_string();
  }
  std::cout << "\ncounter (weak, compensated): "
            << fin->data().weak("counter").as_int() << "\n";
  std::cout << "savepoints GC'd: " << platform.spans().count(EventKind::sp_gc)
            << ", log discards: "
            << platform.spans().count(EventKind::log_discard)
            << ", final log entries: " << fin->log().size() << "\n";
  return outcome.state == agent::AgentOutcome::State::done ? 0 : 1;
}
