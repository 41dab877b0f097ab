// Microbenchmarks (google-benchmark): the serialization substrate.
//
// Agent capture/re-instantiation and Value diffing sit on the critical
// path of every step commit and savepoint; these measure their raw
// wall-clock cost on this machine (the simulation itself uses virtual
// time, so this is the one place real time matters).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "harness/agents.h"
#include "serial/serializable.h"
#include "serial/value.h"
#include "ship/shipment_manager.h"

namespace {

using namespace mar;

harness::WorkloadAgent make_agent(std::int64_t blobs, std::int64_t blob_size) {
  harness::WorkloadAgent agent;
  for (std::int64_t i = 0; i < blobs; ++i) {
    agent.data().strong("results").push_back(serial::Value(serial::Bytes(
        static_cast<std::size_t>(blob_size), std::uint8_t{0x7F})));
  }
  return agent;
}

void BM_EncodeAgent(benchmark::State& state) {
  const auto agent = make_agent(state.range(0), 256);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = agent::encode_agent(agent);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_EncodeAgent)->Arg(4)->Arg(64)->Arg(1024);

void BM_DecodeAgent(benchmark::State& state) {
  const auto agent = make_agent(state.range(0), 256);
  const auto bytes = agent::encode_agent(agent);
  agent::AgentTypeRegistry registry;
  registry.register_type<harness::WorkloadAgent>("workload");
  for (auto _ : state) {
    auto decoded = agent::decode_agent(registry, bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_DecodeAgent)->Arg(4)->Arg(64)->Arg(1024);

// Aged agents: the rollback log migrates with the agent (Sec. 4.2), so a
// long-lived agent's images are dominated by its log. Each aged step logs
// what the perf agent's `spend` step logs: BOS, one agent-compensation OE
// whose params are a 3-key map with a 64 B pad, EOS. Like a ring_aged
// agent, it carries one sub-itinerary of 48 spend steps around 8 nodes.
void log_spend_step(agent::Agent& agent, std::int64_t step) {
  const NodeId node(static_cast<std::uint32_t>(1 + step % 8));
  agent.log().push(rollback::BeginOfStepEntry{node, "spend"});
  serial::Value params = serial::Value::empty_map();
  params.set("slot", "cash");
  params.set("amount", 1);
  params.set("pad", serial::Value(serial::Bytes(64, std::uint8_t{0xC3})));
  agent.log().push(rollback::OperationEntry{rollback::OpEntryKind::agent,
                                            "perf.counter_add",
                                            std::move(params),
                                            NodeId::invalid(), std::string{}});
  rollback::EndOfStepEntry eos;
  eos.node = node;
  agent.log().push(eos);
}

harness::WorkloadAgent make_aged_agent(std::int64_t steps) {
  auto agent = make_agent(4, 256);
  agent::Itinerary ring;
  for (std::uint32_t hop = 0; hop < 48; ++hop) {
    ring.step("spend", NodeId(1 + hop % 8));
  }
  agent.itinerary().sub(std::move(ring));
  for (std::int64_t s = 0; s < steps; ++s) log_spend_step(agent, s);
  return agent;
}

agent::AgentTypeRegistry workload_registry() {
  agent::AgentTypeRegistry registry;
  registry.register_type<harness::WorkloadAgent>("workload");
  return registry;
}

void BM_EncodeAgentAged(benchmark::State& state) {
  // Decoded from its image, like every agent a node migrates.
  auto registry = workload_registry();
  const auto agent = agent::decode_agent(
      registry, agent::encode_agent(make_aged_agent(state.range(0))));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = agent::encode_agent(*agent);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          state.iterations());
}
BENCHMARK(BM_EncodeAgentAged)->Arg(8)->Arg(48)->Arg(128);

void BM_DecodeAgentAged(benchmark::State& state) {
  const auto bytes = agent::encode_agent(make_aged_agent(state.range(0)));
  auto registry = workload_registry();
  for (auto _ : state) {
    auto decoded = agent::decode_agent(registry, bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_DecodeAgentAged)->Arg(8)->Arg(48)->Arg(128);

// A decode while an earlier decode of the same agent is alive, as on a hop
// whose agent a channel base or resident copy still holds: the itinerary
// is shared after one memcmp instead of rebuilt.
void BM_DecodeAgentAgedShared(benchmark::State& state) {
  const auto bytes = agent::encode_agent(make_aged_agent(state.range(0)));
  auto registry = workload_registry();
  const auto live = agent::decode_agent(registry, bytes);
  for (auto _ : state) {
    auto decoded = agent::decode_agent(registry, bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_DecodeAgentAgedShared)->Arg(8)->Arg(48)->Arg(128);

// The receiver side of a delta-shipping hop: the runtime's private copy of
// the reconstructed agent (clone_agent shares the itinerary and copies the
// data space and the wire-form log) in place of a payload decode.
void BM_CloneAgentAged(benchmark::State& state) {
  auto registry = workload_registry();
  const auto agent = agent::decode_agent(
      registry, agent::encode_agent(make_aged_agent(state.range(0))));
  for (auto _ : state) {
    auto copy = agent::clone_agent(registry, *agent);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_CloneAgentAged)->Arg(8)->Arg(48)->Arg(128);

// The sender side of a delta-shipping hop: diff the channel's cached base
// against the agent one step later (log-prefix check plus appended tail).
void BM_DeltaBetweenAged(benchmark::State& state) {
  auto registry = workload_registry();
  auto aged = make_aged_agent(state.range(0));
  const auto base = agent::decode_agent(registry, agent::encode_agent(aged));
  aged.data().weak("cash") = std::int64_t{-1};
  log_spend_step(aged, state.range(0));
  const auto cur = agent::decode_agent(registry, agent::encode_agent(aged));
  for (auto _ : state) {
    auto delta = agent::encode_agent_delta_between(*base, *cur);
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_DeltaBetweenAged)->Arg(8)->Arg(48)->Arg(128);

// Building a local_young agent's itinerary, as a workload does for every
// agent it launches: a dispatch step, then subs of 8 one-node steps.
void BM_BuildItinerary(benchmark::State& state) {
  const auto subs = (state.range(0) - 1) / 8;
  for (auto _ : state) {
    agent::Itinerary main;
    for (std::int64_t s = 0; s < subs; ++s) {
      agent::Itinerary sub;
      if (s == 0) sub.step("noop", NodeId(2));
      for (int j = 0; j < 8; ++j) sub.step("spend", NodeId(1));
      main.sub(std::move(sub));
    }
    benchmark::DoNotOptimize(main);
  }
}
BENCHMARK(BM_BuildItinerary)->Arg(65);

// Decoding a ring_aged itinerary (one sub of one-node steps around 8
// nodes) with no live copy to share: what a decode of a compensate record
// pays when no other copy of the agent is resident.
void BM_DecodeItinerary(benchmark::State& state) {
  agent::Itinerary ring;
  for (std::int64_t hop = 0; hop < state.range(0); ++hop) {
    ring.step("spend", NodeId(static_cast<std::uint32_t>(1 + hop % 8)));
  }
  agent::Itinerary main;
  main.sub(std::move(ring));
  const auto bytes = serial::to_bytes(main);
  for (auto _ : state) {
    auto decoded = serial::from_bytes<agent::Itinerary>(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_DecodeItinerary)->Arg(48);

// The channel-base identity both ends of a delta hop compute over the
// base image (ship::image_hash), at image sizes of young to aged agents.
void BM_ImageHash(benchmark::State& state) {
  serial::Bytes bytes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    auto h = ship::image_hash(bytes);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                          state.iterations());
}
BENCHMARK(BM_ImageHash)->Arg(1024)->Arg(4096)->Arg(16384);

// The size-hint encode path: computing the exact wire size arithmetically
// and pre-sizing the buffer turns a large-map encode into one allocation.
serial::Value make_large_map(std::int64_t keys) {
  serial::Value v = serial::Value::empty_map();
  for (std::int64_t i = 0; i < keys; ++i) {
    v.set("key-" + std::to_string(i), std::string(48, 'v'));
  }
  return v;
}

serial::Value make_deep_nesting(std::int64_t depth) {
  serial::Value v("leaf");
  for (std::int64_t i = 0; i < depth; ++i) {
    serial::Value wrap = serial::Value::empty_map();
    wrap.set("child", std::move(v));
    wrap.set("tag", i);
    v = std::move(wrap);
  }
  return v;
}

void BM_EncodeLargeMapDefault(benchmark::State& state) {
  const auto v = make_large_map(state.range(0));
  for (auto _ : state) {
    serial::Encoder enc;
    v.serialize(enc);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(v.encoded_size()) *
                          state.iterations());
}
BENCHMARK(BM_EncodeLargeMapDefault)->Arg(256)->Arg(4096)->Arg(32768);

void BM_EncodeLargeMapPresized(benchmark::State& state) {
  const auto v = make_large_map(state.range(0));
  for (auto _ : state) {
    serial::Encoder enc(v.encoded_size());
    v.serialize(enc);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(v.encoded_size()) *
                          state.iterations());
}
BENCHMARK(BM_EncodeLargeMapPresized)->Arg(256)->Arg(4096)->Arg(32768);

void BM_EncodeDeepNestingPresized(benchmark::State& state) {
  const auto v = make_deep_nesting(state.range(0));
  for (auto _ : state) {
    serial::Encoder enc(v.encoded_size());
    v.serialize(enc);
    benchmark::DoNotOptimize(enc);
  }
}
BENCHMARK(BM_EncodeDeepNestingPresized)->Arg(64)->Arg(512)->Arg(4096);

void BM_ValueEncodedSize(benchmark::State& state) {
  const auto v = make_large_map(state.range(0));
  for (auto _ : state) {
    auto n = v.encoded_size();
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ValueEncodedSize)->Arg(256)->Arg(4096);

void BM_ValueDiffSparse(benchmark::State& state) {
  serial::Value a = serial::Value::empty_map();
  for (int i = 0; i < state.range(0); ++i) {
    a.set("k" + std::to_string(i), std::string(64, 'x'));
  }
  serial::Value b = a;
  b.set("k0", std::string(64, 'y'));
  for (auto _ : state) {
    auto patch = serial::diff(a, b);
    benchmark::DoNotOptimize(patch);
  }
}
BENCHMARK(BM_ValueDiffSparse)->Arg(16)->Arg(256)->Arg(4096);

void BM_PatchApply(benchmark::State& state) {
  serial::Value a = serial::Value::empty_map();
  for (int i = 0; i < state.range(0); ++i) {
    a.set("k" + std::to_string(i), std::string(64, 'x'));
  }
  serial::Value b = a;
  b.set("k1", std::string(64, 'z'));
  const auto patch = serial::diff(a, b);
  for (auto _ : state) {
    auto restored = serial::apply(patch, a);
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_PatchApply)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so this binary honors the repo-wide
// `--json <path>` convention (bench/run_all.sh treats every binary
// uniformly) by translating it into google-benchmark's reporter flags.
int main(int argc, char** argv) {
  const std::string json_path = mar::bench::json_path_from_args(argc, argv);
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      ++i;  // skip the path value
    } else if (!arg.starts_with("--json=")) {
      args.emplace_back(arg);
    }
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargv;
  cargv.push_back(argv[0]);
  for (auto& arg : args) cargv.push_back(arg.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
