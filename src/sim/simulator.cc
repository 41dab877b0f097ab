#include "sim/simulator.h"

#include "util/check.h"

namespace mar::sim {

EventId Simulator::schedule_at(TimeUs at, Action action) {
  MAR_CHECK_MSG(at >= now_, "scheduling into the past: " << at << " < "
                                                         << now_);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].action = std::move(action);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, slot});
  return EventId{slot, slots_[slot].generation};
}

bool Simulator::cancel(EventId id) {
  if (!scheduled(id)) return false;
  // The action's captures die here, not when its time would have come.
  remove(slots_[id.slot].heap_pos);
  return true;
}

void Simulator::place(std::size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

Action Simulator::remove(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  Slot& s = slots_[slot];
  s.heap_pos = kNoPos;
  ++s.generation;  // every outstanding id of this slot is stale now
  free_slots_.push_back(slot);
  return std::move(s.action);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  now_ = heap_.front().at;
  // The slot is freed before the action runs: the action may schedule
  // (reusing it) or cancel, and its own id is already stale.
  Action action = remove(0);
  ++executed_;
  action();
  return true;
}

TimeUs Simulator::run() {
  while (step()) {
  }
  return now_;
}

void Simulator::run_until(TimeUs t) {
  while (!heap_.empty() && heap_.front().at <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

bool Simulator::run_while_pending(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (step()) {
    if (pred()) return true;
  }
  return false;
}

}  // namespace mar::sim
