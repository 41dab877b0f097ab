// Deterministic discrete-event simulation kernel.
//
// The original system ran on a LAN of workstations; this reproduction runs
// the same protocols over a simulated network so that every experiment is
// deterministic and fault injection is precise. All components (network,
// transaction timeouts, retransmission timers, node recovery) schedule
// closures on this kernel. Time is in integer microseconds.
//
// Events at the same timestamp run in scheduling order (a monotone sequence
// number breaks ties), so a run is a pure function of the initial seed.
//
// Events live in a slab of slots ordered by an indexed binary min-heap of
// small {at, seq, slot} entries. Scheduling returns an EventId (slot plus
// the slot's generation), so a timer can be cancelled in O(log n) the
// moment its reason ends instead of firing later as a no-op (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mar::sim {

using TimeUs = std::uint64_t;

/// A move-only `void()` callable. Captures of up to kInline bytes (every
/// protocol timer and message delivery) live inside the event slot; only
/// larger ones are boxed on the heap.
class Action {
 public:
  static constexpr std::size_t kInline = 48;

  Action() = default;
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Action>>>
  Action(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert
    static_assert(std::is_invocable_r_v<void, D&>);
    if constexpr (kFits<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kBoxedOps<D>;
    }
  }
  Action(Action&& other) noexcept { take(other); }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move + destroy src
    void (*destroy)(void* self) noexcept;
  };
  template <class D>
  static constexpr bool kFits =
      sizeof(D) <= kInline && alignof(D) <= alignof(std::uint64_t) &&
      std::is_nothrow_move_constructible_v<D>;
  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); }};
  template <class D>
  static constexpr Ops kBoxedOps = {
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); }};

  void take(Action& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(std::uint64_t) unsigned char buf_[kInline];
  const Ops* ops_ = nullptr;
};

/// Handle of a scheduled event. It goes stale once the event ran or was
/// cancelled: the slot's generation moves on, so a handle never names the
/// next event that reuses its slot. A default-constructed id names nothing.
struct EventId {
  std::uint32_t slot = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t generation = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in microseconds.
  [[nodiscard]] TimeUs now() const { return now_; }

  /// Schedule `action` to run at absolute time `at` (>= now). The sequence
  /// number that orders same-instant events is taken here, so cancelling
  /// other events never reorders the ones that stay.
  EventId schedule_at(TimeUs at, Action action);

  /// Schedule `action` to run `delay` microseconds from now.
  EventId schedule_after(TimeUs delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Drop a scheduled event; its action is destroyed unrun. Returns false
  /// (and does nothing) for an id that already ran, was cancelled or is
  /// stale — including the id of the event currently running.
  bool cancel(EventId id);

  /// True while `id` names an event that has neither run nor been
  /// cancelled.
  [[nodiscard]] bool scheduled(EventId id) const {
    return id.slot < slots_.size() &&
           slots_[id.slot].generation == id.generation &&
           slots_[id.slot].heap_pos != kNoPos;
  }

  /// Run a single event. Returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains. Returns the final time.
  TimeUs run();

  /// Run events with time <= t, then set now to t.
  void run_until(TimeUs t);

  /// Run until either the queue drains or `pred()` becomes true (checked
  /// after every event). Returns true if pred was satisfied.
  bool run_while_pending(const std::function<bool()>& pred);

  /// Scheduled events that have neither run nor been cancelled.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  static constexpr std::uint32_t kNoPos =
      std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    Action action;
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kNoPos;  ///< index into heap_, kNoPos if free
  };
  struct Entry {
    TimeUs at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  void place(std::size_t pos, const Entry& e);
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);
  /// Take heap_[pos] out of the heap and free its slot.
  Action remove(std::size_t pos);

  TimeUs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;
};

}  // namespace mar::sim
