// Experiment E7 — RPC vs agent migration (Sec. 4.4.1 "further
// optimizations", model of ref [16]).
//
// Sweeps the number of interactions and the agent size, reporting the
// analytic model's costs/decision and the crossover interaction count, and
// validates the model against the network substrate by actually running
// the message exchanges through the simulator (request/reply ping-pong vs
// a single agent-sized transfer each way).
//
// Expected shape (as in Straßer & Schwehm): RPC wins for few interactions;
// migration wins once interactions amortize shipping the agent; the
// crossover moves right as the agent (incl. rollback log) grows.
#include <iomanip>
#include <iostream>

#include "net/network.h"
#include "perfmodel/perfmodel.h"
#include "sim/simulator.h"

using namespace mar;

namespace {

/// Simulated actual: run the exchanges over the reliable network.
struct Actuals {
  sim::TimeUs rpc_us;
  sim::TimeUs migration_us;
};

Actuals simulate(const perfmodel::NetworkParams& np,
                 const perfmodel::TaskParams& task) {
  Actuals out{};
  for (int variant = 0; variant < 2; ++variant) {
    sim::Simulator sim;
    net::Network net(sim);
    net::LinkParams lp;
    lp.latency_us = static_cast<sim::TimeUs>(np.latency_us);
    lp.bandwidth_bytes_per_us = np.bytes_per_us;
    net.set_default_link(lp);

    const NodeId client(1);
    const NodeId server(2);
    sim::TimeUs finished = 0;
    std::int64_t remaining = task.interactions;

    // The exchanges borrow the protocol's tags: an RPC is ctr.invoke and
    // ctr.result, an agent trip is a ship.convoy each way. Payloads are
    // sized so each message's wire size is the modeled byte count.
    using net::MsgType;
    const auto message = [](NodeId from, NodeId to, MsgType type,
                            double wire_bytes) {
      return net::Message{
          from, to, type,
          serial::Bytes(static_cast<std::size_t>(wire_bytes) -
                        net::Message::kHeaderBytes - net::name(type).size())};
    };
    std::function<void()> send_request;
    const auto on_reply = [&](const net::Message&) {
      if (--remaining > 0) {
        send_request();
      } else {
        finished = sim.now();
      }
    };
    net.add_node(client);
    net.add_node(server);
    net.on(client, MsgType::ctr_result, on_reply);
    net.on(client, MsgType::ship_convoy, on_reply);
    net.on(server, MsgType::ctr_invoke, [&](const net::Message&) {
      sim.schedule_after(
          static_cast<sim::TimeUs>(task.server_time_us), [&] {
            net.send(message(server, client, MsgType::ctr_result,
                             task.reply_bytes));
          });
    });
    net.on(server, MsgType::ship_convoy, [&](const net::Message&) {
      // The agent arrived: local interactions, then the return trip.
      sim.schedule_after(
          static_cast<sim::TimeUs>(static_cast<double>(task.interactions) *
                                   task.server_time_us),
          [&] {
            net.send(message(server, client, MsgType::ship_convoy,
                             task.agent_bytes +
                                 task.selectivity * task.result_bytes));
          });
    });

    if (variant == 0) {
      send_request = [&] {
        net.send(message(client, server, MsgType::ctr_invoke,
                         task.request_bytes));
      };
      send_request();
      sim.run_while_pending([&] { return finished != 0; });
      out.rpc_us = finished;
    } else {
      remaining = 1;  // the agent's return trip ends the run
      net.send(message(client, server, MsgType::ship_convoy,
                       task.agent_bytes));
      sim.run_while_pending([&] { return finished != 0; });
      out.migration_us = finished;
    }
  }
  return out;
}

}  // namespace

int main() {
  perfmodel::NetworkParams np;  // 10 Mbit/s LAN, 500 us latency
  std::cout << "=== E7: RPC vs agent migration (performance model of ref "
               "[16]) ===\n"
            << "(500 us latency, 10 Mbit/s, 128 B requests, 1 KiB replies, "
               "selectivity 0.1)\n\n";
  std::cout << "agent[B]  n     model-rpc[ms]  model-mig[ms]  sim-rpc[ms]  "
               "sim-mig[ms]  decision  crossover-n\n";
  std::cout << "-------------------------------------------------------"
               "---------------------------------\n";
  bool shape_ok = true;
  for (const double agent_bytes : {2'048.0, 16'384.0, 131'072.0}) {
    double prev_crossover = 0;
    (void)prev_crossover;
    for (const std::int64_t n : {1, 2, 5, 10, 50}) {
      perfmodel::TaskParams task;
      task.interactions = n;
      task.agent_bytes = agent_bytes;
      task.result_bytes = static_cast<double>(n) * 1024.0;
      task.selectivity = 0.1;
      const double rpc = perfmodel::rpc_time_us(np, task);
      const double mig = perfmodel::migration_time_us(np, task);
      const auto choice = perfmodel::choose(np, task);
      const double crossover = perfmodel::crossover_interactions(np, task);
      const auto actual = simulate(np, task);
      std::cout << std::setw(8) << static_cast<std::int64_t>(agent_bytes)
                << "  " << std::setw(4) << n << "  " << std::setw(13)
                << std::fixed << std::setprecision(2) << rpc / 1000.0 << "  "
                << std::setw(13) << mig / 1000.0 << "  " << std::setw(11)
                << actual.rpc_us / 1000.0 << "  " << std::setw(11)
                << actual.migration_us / 1000.0 << "  " << std::setw(8)
                << (choice == perfmodel::Strategy::migrate ? "migrate"
                                                           : "rpc")
                << "  " << std::setw(11) << std::setprecision(1) << crossover
                << "\n";
      // Model and simulation must agree within 25% (headers/acks differ).
      const double rpc_err = std::abs(actual.rpc_us - rpc) / rpc;
      const double mig_err = std::abs(actual.migration_us - mig) / mig;
      shape_ok = shape_ok && rpc_err < 0.25 && mig_err < 0.25;
    }
    std::cout << "\n";
  }
  // Structural claims: small agent + many interactions => migrate;
  // large agent + one interaction => rpc.
  {
    perfmodel::TaskParams few;
    few.interactions = 1;
    few.agent_bytes = 131'072;
    perfmodel::TaskParams many;
    many.interactions = 50;
    many.agent_bytes = 2'048;
    shape_ok = shape_ok &&
               perfmodel::choose(np, few) == perfmodel::Strategy::rpc &&
               perfmodel::choose(np, many) == perfmodel::Strategy::migrate;
  }
  std::cout << "check: model matches simulated actuals (<25% error); RPC "
               "wins few/large, migration wins many/small -> "
            << (shape_ok ? "OK" : "MISMATCH") << "\n";
  return shape_ok ? 0 : 1;
}
