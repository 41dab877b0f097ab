#include "agent/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace mar::agent {

Scheduler::Scheduler(const PlatformConfig& config,
                     const storage::StableStorage& storage,
                     tx::QueueManager& qm, Rng& rng)
    : config_(config), storage_(storage), rng_(rng) {
  qm.set_gone_listener([this](std::uint64_t id) { record_gone(id); });
}

const storage::QueueRecord* Scheduler::claim() {
  if (slots_.size() >= std::max<std::uint32_t>(1, config_.node_concurrency)) {
    return nullptr;
  }
  const storage::QueueRecord* best = nullptr;
  std::int64_t best_score = 0;
  for (const auto& r : storage_.queue()) {
    if (!eligible(r)) continue;
    if (aged_ == 0) {  // plain FIFO: the first eligible record, no bypass
      slots_.push_back(Slot{r.record_id, r.agent});
      return &r;
    }
    const auto it = table_.find(r.record_id);
    const auto s = it == table_.end()
                       ? 0
                       : static_cast<std::int64_t>(it->second.releases) -
                             static_cast<std::int64_t>(it->second.bypasses);
    if (best == nullptr || s < best_score) {
      best = &r;
      best_score = s;
    }
  }
  if (best == nullptr) return nullptr;
  // Every eligible record ahead of the admitted one was passed over.
  for (const auto& r : storage_.queue()) {
    if (&r == best) break;
    if (eligible(r)) ++aging(r.record_id).bypasses;
  }
  slots_.push_back(Slot{best->record_id, best->agent});
  return best;
}

bool Scheduler::eligible(const storage::QueueRecord& rec) const {
  MAR_DCHECK_MSG(rec.agent.valid(),
                 "queued record " << rec.record_id << " has no agent");
  // A record in a slot has its own agent there, so this also skips it.
  return std::none_of(slots_.begin(), slots_.end(),
                      [&rec](const Slot& s) { return s.agent == rec.agent; });
}

Scheduler::Entry& Scheduler::aging(std::uint64_t record_id) {
  Entry& e = table_[record_id];
  if (e.releases == 0 && e.bypasses == 0) ++aged_;
  return e;
}

bool Scheduler::holds(std::uint64_t record_id) const {
  return std::any_of(slots_.begin(), slots_.end(), [record_id](const Slot& s) {
    return s.record_id == record_id;
  });
}

std::uint32_t Scheduler::attempts(std::uint64_t record_id) const {
  const auto it = table_.find(record_id);
  return it == table_.end() ? 0 : it->second.attempts;
}

void Scheduler::free_slot(std::uint64_t record_id) {
  std::erase_if(slots_, [record_id](const Slot& s) {
    return s.record_id == record_id;
  });
}

void Scheduler::commit_exit(std::uint64_t record_id) {
  MAR_DCHECK(!table_.contains(record_id) &&
             storage_.find_record(record_id) == nullptr);
  free_slot(record_id);
}

std::optional<sim::TimeUs> Scheduler::abort_exit(
    const storage::QueueRecord& rec, Attempt attempt, std::uint64_t now) {
  MAR_DCHECK(holds(rec.record_id) &&
             storage_.find_record(rec.record_id) != nullptr);
  Entry& e = table_[rec.record_id];
  if (attempt != Attempt::uncounted) ++e.attempts;
  const auto max = config_.max_compensation_attempts;
  if (attempt == Attempt::bounded && max > 0 && e.attempts >= max) {
    return std::nullopt;
  }
  free_slot(rec.record_id);
  ++aging(rec.record_id).releases;
  if (rec.hop_span_id != 0) {
    if (e.hop.span_id == 0) ++stashed_;
    e.hop = HopStash{rec.hop_span_id, rec.hop_begin_us, now};
  }
  return config_.retry_backoff_us +
         rng_.next_below(config_.retry_backoff_us + 1);
}

void Scheduler::keep_resident(std::uint64_t record_id,
                              std::shared_ptr<Agent> agent) {
  table_[record_id].resident = std::move(agent);
}

std::shared_ptr<Agent> Scheduler::take_resident(std::uint64_t record_id) {
  const auto it = table_.find(record_id);
  return it == table_.end() ? nullptr : std::move(it->second.resident);
}

Scheduler::HopStash Scheduler::take_hop(std::uint64_t record_id) {
  const auto it = stashed_ == 0 ? table_.end() : table_.find(record_id);
  if (it == table_.end() || it->second.hop.span_id == 0) return {};
  --stashed_;
  return std::exchange(it->second.hop, {});
}

void Scheduler::record_gone(std::uint64_t record_id) {
  const auto it = table_.find(record_id);
  if (it == table_.end()) return;
  if (it->second.releases != 0 || it->second.bypasses != 0) --aged_;
  if (it->second.hop.span_id != 0) --stashed_;
  table_.erase(it);
}

void Scheduler::crash() {
  slots_.clear();
  aged_ = 0;
  stashed_ = 0;
  std::erase_if(table_, [](const auto& kv) { return kv.second.attempts == 0; });
  for (auto& [id, e] : table_) e = Entry{e.attempts, 0, 0, {}, nullptr};
}

std::size_t Scheduler::resident_agents() const {
  return static_cast<std::size_t>(
      std::count_if(table_.begin(), table_.end(), [](const auto& kv) {
        return kv.second.resident != nullptr;
      }));
}

}  // namespace mar::agent
