#include "storage/stable_storage.h"

#include <algorithm>

namespace mar::storage {

void QueueRecord::serialize(serial::Encoder& enc) const {
  enc.write_u64(record_id);
  enc.write_u64(agent.value());
  enc.write_u8(static_cast<std::uint8_t>(kind));
  enc.write_u32(rollback_target.value());
  enc.write_u8(static_cast<std::uint8_t>(completion));
  enc.write_u64(trace_id);
  enc.write_u64(trace_parent);
  enc.write_bytes(payload);
}

void QueueRecord::deserialize(serial::Decoder& dec) {
  record_id = dec.read_u64();
  agent = AgentId(dec.read_u64());
  kind = static_cast<RecordKind>(dec.read_u8());
  rollback_target = SavepointId(dec.read_u32());
  completion = static_cast<Completion>(dec.read_u8());
  trace_id = dec.read_u64();
  trace_parent = dec.read_u64();
  payload = dec.read_bytes();
}

std::size_t QueueRecord::byte_size() const {
  // Arithmetic mirror of serialize() — enqueue meters every record, so
  // this must not cost an encode of the (possibly large) payload.
  return 8 + 8 + 1 + 4 + 1 + 8 + 8 + serial::blob_size(payload.size());
}

void StableStorage::put(const std::string& key, serial::Bytes value) {
  stats_.bytes_written += value.size() + key.size();
  ++stats_.kv_writes;
  kv_[key] = std::move(value);
}

std::optional<serial::Bytes> StableStorage::get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

bool StableStorage::erase(const std::string& key) {
  return kv_.erase(key) > 0;
}

bool StableStorage::contains(const std::string& key) const {
  return kv_.contains(key);
}

std::vector<std::string> StableStorage::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = kv_.lower_bound(prefix); it != kv_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

void StableStorage::for_each_with_prefix(
    const std::string& prefix,
    const std::function<void(const std::string&, const serial::Bytes&)>& fn)
    const {
  for (auto it = kv_.lower_bound(prefix); it != kv_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    fn(it->first, it->second);
  }
}

void StableStorage::record_reset(const std::string& key, serial::Bytes base) {
  ++stats_.record_resets;
  stats_.bytes_written += seg_log_.append_reset(key, std::move(base));
}

void StableStorage::record_append(const std::string& key,
                                  serial::Bytes delta) {
  ++stats_.record_appends;
  stats_.bytes_written += seg_log_.append_delta(key, std::move(delta));
}

bool StableStorage::record_erase(const std::string& key) {
  if (!seg_log_.has(key)) return false;
  stats_.bytes_written += seg_log_.append_erase(key);
  return true;
}

bool StableStorage::complete_checkpoint() {
  const std::size_t snapshot_bytes = seg_log_.complete_checkpoint();
  if (snapshot_bytes == 0) return false;
  stats_.bytes_written += snapshot_bytes;
  ++stats_.checkpoints_completed;
  return true;
}

RecoveryReport StableStorage::recover_records() {
  const RecoveryReport report = seg_log_.recover();
  stats_.recovery_replayed_bytes += report.replayed_bytes;
  stats_.recovery_segments += report.segments_scanned;
  return report;
}

bool StableStorage::enqueue(QueueRecord record, bool transfer) {
  if (transfer && !seen_records_.insert(record.record_id).second) {
    return false;  // duplicate
  }
  stats_.bytes_written += record.byte_size();
  ++stats_.queue_ops;
  queue_.push_back(std::move(record));
  return true;
}

bool StableStorage::remove(std::uint64_t record_id) {
  auto it = std::find_if(
      queue_.begin(), queue_.end(),
      [record_id](const QueueRecord& r) { return r.record_id == record_id; });
  if (it == queue_.end()) return false;
  ++stats_.queue_ops;
  queue_.erase(it);
  return true;
}

const QueueRecord* StableStorage::find_record(std::uint64_t record_id) const {
  auto it = std::find_if(
      queue_.begin(), queue_.end(),
      [record_id](const QueueRecord& r) { return r.record_id == record_id; });
  return it == queue_.end() ? nullptr : &*it;
}

}  // namespace mar::storage
