// Bench-side spans, timed from outside the library.
//
// The traced run wraps the calls the benchmark makes into each layer
// (every sim.step(), the perf agent's run_step, every resource invoke,
// the bench resources' logic, every node recovery) in a Scope. Spans nest
// on one stack, so each span's self time is its duration minus the time
// its children covered. Nothing inside src/ is instrumented.
//
// The untraced run leaves `active` null and every Scope is a no-op, so
// both runs execute the identical simulation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace mar::perf {

enum class SpanName : std::uint8_t {
  sim_event,         ///< one sim.step() call
  agent_step,        ///< PerfAgent::run_step
  resource_manager,  ///< one StepContext / CompensationContext invoke
  resource_logic,    ///< a bench resource's invoke or key_set
  storage_recover,   ///< one Network::recover_node call
};
inline constexpr std::size_t kSpanNames = 5;

[[nodiscard]] constexpr std::string_view span_name(SpanName n) {
  constexpr std::array<std::string_view, kSpanNames> names = {
      "sim.event", "agent.step", "resource.manager", "resource.logic",
      "storage.recover"};
  return names[static_cast<std::size_t>(n)];
}

/// One sampled span, as written to the --spans JSONL file.
struct SpanRecord {
  SpanName name;
  std::int64_t start_ns;  ///< since the tracer was created
  std::int64_t end_ns;
  std::int64_t parent;     ///< index of the parent record, -1 for roots
  std::int64_t hop_index;  ///< ordinal of the enclosing agent.step, or -1
};

class Tracer {
 public:
  /// `sample_cap` spans are kept in begin order (0 keeps none).
  explicit Tracer(std::size_t sample_cap) : sample_cap_(sample_cap) {
    sample_.reserve(sample_cap);
  }

  void begin(SpanName name) {
    Open o;
    o.name = name;
    o.hop_index = name == SpanName::agent_step ? step_ordinal_++
                  : stack_.empty()             ? -1
                                               : stack_.back().hop_index;
    if (sample_.size() < sample_cap_) {
      o.record = static_cast<std::int64_t>(sample_.size());
      sample_.push_back(SpanRecord{
          name, 0, 0, stack_.empty() ? -1 : stack_.back().record,
          o.hop_index});
    }
    o.start = now_ns();
    stack_.push_back(o);
  }

  void end() {
    const std::int64_t stop = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = stop - o.start;
    auto& agg = agg_[static_cast<std::size_t>(o.name)];
    ++agg.count;
    agg.total_ns += dur;
    agg.self_ns += dur - o.child_ns;
    if (o.name == SpanName::sim_event || o.name == SpanName::storage_recover) {
      agg.durations.push_back(dur);
    }
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.record >= 0) {
      auto& r = sample_[static_cast<std::size_t>(o.record)];
      r.start_ns = o.start - epoch_;
      r.end_ns = stop - epoch_;
    }
  }

  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    /// Per-span durations, kept only for sim.event and storage.recover
    /// (the two spans whose distribution is reported).
    std::vector<std::int64_t> durations;
  };
  [[nodiscard]] const Aggregate& aggregate(SpanName n) const {
    return agg_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] const std::vector<SpanRecord>& sample() const {
    return sample_;
  }

  /// Resource invokes that returned ok (the rest hit a lock conflict or
  /// a rejected operation and are wasted work).
  void count_ok_invoke() { ++ok_invokes_; }
  [[nodiscard]] std::uint64_t ok_invokes() const { return ok_invokes_; }

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Open {
    SpanName name = SpanName::sim_event;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::int64_t record = -1;
    std::int64_t hop_index = -1;
  };

  std::int64_t epoch_ = now_ns();
  std::int64_t step_ordinal_ = 0;
  std::uint64_t ok_invokes_ = 0;
  std::size_t sample_cap_;
  std::vector<Open> stack_;
  std::array<Aggregate, kSpanNames> agg_{};
  std::vector<SpanRecord> sample_;
};

/// The tracer of the running traced round; null in untraced runs. The
/// whole benchmark runs on one thread.
inline Tracer* active = nullptr;

/// Times the enclosing block as one span when a tracer is active.
class Scope {
 public:
  explicit Scope(SpanName name) : t_(active) {
    if (t_ != nullptr) t_->begin(name);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

}  // namespace mar::perf
