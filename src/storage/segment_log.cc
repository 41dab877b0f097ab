#include "storage/segment_log.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>

namespace mar::storage {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Slicing-by-8 tables: kCrcTables[0] is the bytewise table; entry i of
// table s is the CRC of byte i followed by s zero bytes, so eight table
// lookups advance the register over eight bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}
constexpr CrcTables kCrcTables = make_crc_tables();

constexpr std::size_t kFrameHeader = 8;  // crc32 + len
constexpr std::size_t kPayloadHeader = 5;  // op + key_len

/// Deterministic small PRNG for fault placement (splitmix64).
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

const char* to_string(StorageFault fault) {
  switch (fault) {
    case StorageFault::none: return "none";
    case StorageFault::torn_tail: return "torn_tail";
    case StorageFault::bit_flip: return "bit_flip";
    case StorageFault::torn_checkpoint: return "torn_checkpoint";
  }
  return "unknown";
}

std::optional<StorageFault> storage_fault_from_string(std::string_view name) {
  if (name == "none") return StorageFault::none;
  if (name == "torn_tail") return StorageFault::torn_tail;
  if (name == "bit_flip") return StorageFault::bit_flip;
  if (name == "torn_checkpoint") return StorageFault::torn_checkpoint;
  return std::nullopt;
}

SegmentLog::Segment& SegmentLog::active_segment(
    std::size_t incoming_frame_bytes) {
  if (!segments_.empty()) {
    Segment& tail = segments_.rbegin()->second;
    if (tail.bytes.size() + incoming_frame_bytes <= config_.segment_bytes ||
        tail.bytes.empty()) {
      return tail;
    }
  }
  // Seal the tail; a sealed, fully-dead segment retires on the spot (once
  // the new segment is open, so the cascade sees the tail sealed).
  std::optional<std::uint64_t> dead_tail;
  if (!segments_.empty() && segments_.rbegin()->second.live == 0) {
    dead_tail = segments_.rbegin()->first;
  }
  Segment seg;
  seg.id = next_segment_id_++;
  seg.first_lsn = next_lsn_;
  open_segment_ = seg.id;
  Segment& fresh = segments_.emplace(seg.id, std::move(seg)).first->second;
  if (dead_tail.has_value()) retire_segment(*dead_tail);
  return fresh;
}

std::size_t SegmentLog::append_frame(Op op, const std::string& key,
                                     const serial::Bytes& data) {
  const std::size_t payload_size = kPayloadHeader + key.size() + data.size();
  const std::size_t frame_size = kFrameHeader + payload_size;
  Segment& seg = active_segment(frame_size);

  // The frame is written in place at the segment's end.
  const std::size_t start = seg.bytes.size();
  seg.bytes.resize(start + frame_size);
  std::uint8_t* frame = seg.bytes.data() + start;
  store_u32(frame + 4, static_cast<std::uint32_t>(payload_size));
  frame[kFrameHeader] = static_cast<std::uint8_t>(op);
  store_u32(frame + kFrameHeader + 1, static_cast<std::uint32_t>(key.size()));
  std::uint8_t* body = frame + kFrameHeader + kPayloadHeader;
  if (!key.empty()) std::memcpy(body, key.data(), key.size());
  if (!data.empty()) std::memcpy(body + key.size(), data.data(), data.size());
  // CRC covers len + payload so a torn length header fails the same check.
  store_u32(frame, crc32(std::span(frame + 4, frame_size - 4)));
  appended_bytes_ += frame_size;
  track_frame(op, key, seg, next_lsn_++);
  return frame_size;
}

void SegmentLog::track_frame(Op op, const std::string& key, Segment& seg,
                             std::uint64_t lsn) {
  // A reset or erase supersedes every earlier frame of its key.
  if (op != Op::append) kill_frames_of(key);
  ++seg.frames;
  ++seg.live;
  if (op == Op::erase) {
    add_tombstone(key, lsn, seg);
  } else {
    key_frame_segments_[key].live.push_back(seg.id);
  }
}

std::optional<std::uint64_t> SegmentLog::kill_frame(std::uint64_t seg_id) {
  auto sit = segments_.find(seg_id);
  if (sit == segments_.end()) return std::nullopt;  // already retired
  Segment& seg = sit->second;
  if (seg.live > 0) --seg.live;
  // A sealed segment with nothing live left is pure garbage: every frame
  // in it has been superseded by a younger reset/erase whose replay
  // reproduces the final state without it.
  if (seg.live == 0 && sealed(seg)) return seg_id;
  return std::nullopt;
}

void SegmentLog::kill_frames_of(const std::string& key) {
  auto it = key_frame_segments_.find(key);
  if (it == key_frame_segments_.end()) return;
  KeyFrames& kf = it->second;
  std::vector<std::uint64_t> emptied;
  // A reset or erase over a live tombstone ends it: the new frame hides
  // the older ones from here on.
  if (kf.tombstone.has_value()) {
    if (const auto e = end_tombstone(kf)) emptied.push_back(*e);
  }
  for (std::uint64_t seg_id : kf.live) {
    if (!segments_.contains(seg_id)) continue;
    if (kf.shadowed.empty() || kf.shadowed.back() != seg_id) {
      kf.shadowed.push_back(seg_id);
    }
    if (const auto e = kill_frame(seg_id)) emptied.push_back(*e);
  }
  kf.live.clear();
  std::erase_if(kf.shadowed, [this](std::uint64_t id) {
    return !segments_.contains(id);
  });
  for (std::uint64_t seg_id : emptied) retire_segment(seg_id);
}

std::optional<std::uint64_t> SegmentLog::end_tombstone(KeyFrames& kf) {
  const std::uint64_t lsn = *kf.tombstone;
  kf.tombstone.reset();
  parked_.erase(lsn);
  auto tit = tombstones_.find(lsn);
  const std::uint64_t own = tit->second.segment;
  tombstones_.erase(tit);
  // Older frames in the tombstone's own segment replay before its erase
  // frame wherever they replay at all: they need no shadowing any more.
  if (!kf.shadowed.empty() && kf.shadowed.back() == own) {
    kf.shadowed.pop_back();
  }
  return kill_frame(own);
}

void SegmentLog::add_tombstone(const std::string& key, std::uint64_t lsn,
                               const Segment& seg) {
  KeyFrames& kf = key_frame_segments_[key];
  Tombstone t;
  t.key = key;
  t.segment = seg.id;
  for (std::uint64_t id : kf.shadowed) {
    if (id == seg.id) continue;  // retires as a whole with the tombstone
    auto sit = segments_.find(id);
    if (sit == segments_.end()) continue;
    sit->second.waiters.push_back(lsn);
    ++t.waiting;
  }
  kf.tombstone = lsn;
  const bool free = t.waiting == 0;
  tombstones_.emplace(lsn, std::move(t));
  if (free) {
    if (const auto emptied = settle_tombstone(lsn)) retire_segment(*emptied);
  }
}

bool SegmentLog::held_by_checkpoint(const std::string& key,
                                    std::uint64_t lsn) const {
  const auto holds = [&](const CheckpointSlot& slot) {
    return slot.valid && slot.begin_lsn <= lsn && slot.snapshot.contains(key);
  };
  return holds(newest_) || holds(previous_) ||
         (in_progress_.has_value() && in_progress_->begin_lsn <= lsn &&
          in_progress_->snapshot.contains(key));
}

std::optional<std::uint64_t> SegmentLog::settle_tombstone(
    std::uint64_t lsn) {
  auto tit = tombstones_.find(lsn);
  if (tit == tombstones_.end()) return std::nullopt;
  if (held_by_checkpoint(tit->second.key, lsn)) {
    parked_.insert(lsn);
    return std::nullopt;
  }
  auto kit = key_frame_segments_.find(tit->second.key);
  const auto emptied = end_tombstone(kit->second);
  // Nothing of the key is left to hide: forget it. (Replay can meet
  // appends past a tombstone whose reset retired; they keep it tracked
  // until the frame that superseded them.)
  if (kit->second.live.empty()) key_frame_segments_.erase(kit);
  return emptied;
}

void SegmentLog::recheck_parked() {
  const std::vector<std::uint64_t> parked(parked_.begin(), parked_.end());
  for (std::uint64_t lsn : parked) {
    if (const auto emptied = settle_tombstone(lsn)) retire_segment(*emptied);
  }
}

void SegmentLog::retire_segment(std::uint64_t id) {
  std::vector<std::uint64_t> work{id};
  while (!work.empty()) {
    auto sit = segments_.find(work.back());
    work.pop_back();
    if (sit == segments_.end()) continue;
    const std::vector<std::uint64_t> waiters = std::move(sit->second.waiters);
    segments_.erase(sit);
    ++retired_segments_;
    for (std::uint64_t lsn : waiters) {
      auto tit = tombstones_.find(lsn);
      if (tit == tombstones_.end()) continue;  // died or was superseded
      if (--tit->second.waiting > 0) continue;
      // A segment the dying tombstone leaves empty retires through the
      // worklist, not by recursion: cascades can run the whole log.
      if (const auto emptied = settle_tombstone(lsn)) {
        work.push_back(*emptied);
      }
    }
  }
}

std::size_t SegmentLog::append_reset(const std::string& key,
                                     serial::Bytes base) {
  const std::size_t framed = append_frame(Op::reset, key, base);
  auto& segs = index_[key];
  segs.clear();
  segs.push_back(std::move(base));
  return framed;
}

std::size_t SegmentLog::append_delta(const std::string& key,
                                     serial::Bytes delta) {
  const std::size_t framed = append_frame(Op::append, key, delta);
  index_[key].push_back(std::move(delta));
  return framed;
}

std::size_t SegmentLog::append_erase(const std::string& key) {
  const std::size_t framed = append_frame(Op::erase, key, {});
  index_.erase(key);
  return framed;
}

const std::vector<serial::Bytes>* SegmentLog::segments(
    const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second;
}

std::size_t SegmentLog::segment_count(const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.size();
}

bool SegmentLog::begin_checkpoint() {
  if (in_progress_.has_value()) return false;
  PendingCheckpoint pending;
  pending.begin_lsn = next_lsn_;
  pending.snapshot = index_;  // consistent at begin; appends keep flowing
  in_progress_ = std::move(pending);
  return true;
}

std::size_t SegmentLog::complete_checkpoint() {
  if (!in_progress_.has_value()) return 0;
  CheckpointSlot slot;
  slot.begin_lsn = in_progress_->begin_lsn;
  // Write-side integrity seal: serialize the snapshot once to meter its
  // durable size and stamp a CRC over the written image. Recovery never
  // re-scans this — like an engine trusting its checkpointed tree pages,
  // it checks only the end marker (`complete`) and installs the state.
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(in_progress_->snapshot.size()));
  for (const auto& [key, segs] : in_progress_->snapshot) {
    put_u32(out, static_cast<std::uint32_t>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
    put_u32(out, static_cast<std::uint32_t>(segs.size()));
    for (const auto& seg : segs) {
      put_u32(out, static_cast<std::uint32_t>(seg.size()));
      out.insert(out.end(), seg.begin(), seg.end());
    }
  }
  slot.crc = crc32(out);
  slot.byte_size = out.size();
  slot.snapshot = std::move(in_progress_->snapshot);
  slot.valid = true;
  slot.complete = true;  // the end marker lands last
  in_progress_.reset();
  previous_ = std::move(newest_);
  newest_ = std::move(slot);
  checkpoint_written_ = true;
  ++checkpoints_completed_;
  // The dropped generation may have been the last holder of a parked
  // tombstone's key. (Beginning a checkpoint only adds a holder, so it
  // never releases one.)
  recheck_parked();
  retire_covered_segments();
  return newest_.byte_size;
}

void SegmentLog::abandon_checkpoint() {
  in_progress_.reset();
  recheck_parked();
}

void SegmentLog::retire_covered_segments() {
  // Recovery may need to fall back one checkpoint generation, so the log
  // must stay replayable from the OLDER slot's begin_lsn. Only when both
  // generations exist — and the fallback one is intact — is anything
  // below the previous slot expendable.
  if (!newest_.valid || !previous_.valid || !previous_.complete) return;
  const std::uint64_t floor_lsn = previous_.begin_lsn;
  std::vector<std::uint64_t> covered;
  for (const auto& [id, seg] : segments_) {
    if (seg.first_lsn + seg.frames > floor_lsn) break;
    if (sealed(seg)) covered.push_back(id);
  }
  // Oldest first: the tombstones in a covered segment die with the older
  // segments they wait on before their own segment goes.
  for (std::uint64_t id : covered) retire_segment(id);
}

StorageFault SegmentLog::inject_fault(StorageFault fault, std::uint64_t seed) {
  std::uint64_t rng = seed * 0x2545F4914F6CDD1Dull + 1;
  switch (fault) {
    case StorageFault::none:
      return StorageFault::none;
    case StorageFault::torn_tail: {
      // Model a crash mid-append: a partial frame of garbage lands after
      // the last committed frame. The committed prefix is untouched, so
      // truncation at the first bad checksum restores exactly the
      // pre-crash committed state.
      // It lands in the segment the append was filling: sealing one here
      // would shift every later segment boundary away from the log that
      // never crashed. With no segment retained there is nothing to tear.
      if (segments_.empty()) return StorageFault::none;
      Segment& seg = segments_.rbegin()->second;
      const std::size_t torn = 1 + mix64(rng) % (kFrameHeader + 24);
      for (std::size_t i = 0; i < torn; ++i) {
        seg.bytes.push_back(static_cast<std::uint8_t>(mix64(rng)));
      }
      return StorageFault::torn_tail;
    }
    case StorageFault::bit_flip: {
      // Flip one bit inside a committed frame that is NOT the physical
      // tail frame: tail damage is indistinguishable from a torn write
      // and would be (correctly, but silently) truncated away. Mid-log
      // damage must hard-fail instead.
      struct Target {
        Segment* seg;
        std::size_t offset;
        std::size_t size;
      };
      std::vector<Target> frames;
      for (auto& [id, seg] : segments_) {
        std::size_t off = 0;
        while (off + kFrameHeader <= seg.bytes.size()) {
          const std::uint32_t len = get_u32(seg.bytes.data() + off + 4);
          if (off + kFrameHeader + len > seg.bytes.size()) break;
          frames.push_back({&seg, off, kFrameHeader + len});
          off += kFrameHeader + len;
        }
      }
      if (frames.size() < 2) return StorageFault::none;
      frames.pop_back();  // never the physical tail frame
      const Target& t = frames[mix64(rng) % frames.size()];
      const std::size_t bit = mix64(rng) % (t.size * 8);
      t.seg->bytes[t.offset + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      return StorageFault::bit_flip;
    }
    case StorageFault::torn_checkpoint: {
      // The crash lands mid-checkpoint-write: the newest slot never got
      // its end marker, and whatever bytes it holds are untrustworthy.
      // Scramble the seal too so nothing downstream can mistake the slot
      // for intact.
      // Only a slot written since the last recovery can be the write a
      // crash interrupts: one that already survived a recovery is not
      // being written any more.
      if (!newest_.valid || !newest_.complete || !checkpoint_written_) {
        return StorageFault::none;
      }
      newest_.complete = false;
      newest_.crc ^= static_cast<std::uint32_t>(mix64(rng) | 1u);
      return StorageFault::torn_checkpoint;
    }
  }
  return StorageFault::none;
}

RecoveryReport SegmentLog::recover() {
  RecoveryReport report;
  in_progress_.reset();  // volatile: died with the node
  checkpoint_written_ = false;
  index_.clear();
  key_frame_segments_.clear();
  tombstones_.clear();
  parked_.clear();

  // Choose the replay base: newest checkpoint, else previous, else empty.
  // A slot without its end marker was torn by a crash mid-write and is
  // never trusted; installing an intact slot is a state copy, not a scan.
  std::uint64_t start_lsn = 0;
  auto install_slot = [&](const CheckpointSlot& slot) -> bool {
    if (!slot.valid || !slot.complete) return false;
    index_ = slot.snapshot;  // copy: the slot must survive the next crash
    start_lsn = slot.begin_lsn;
    return true;
  };
  if (install_slot(newest_)) {
    report.used_checkpoint = true;
  } else if (newest_.valid) {
    // Newest slot torn: fall back a generation. The log is retained back
    // to previous.begin_lsn exactly for this.
    if (install_slot(previous_)) {
      report.used_checkpoint = true;
      report.checkpoint_fell_back = true;
      newest_ = std::move(previous_);
      previous_ = CheckpointSlot{};
    } else if (previous_.valid) {
      // Both generations damaged after the log was trimmed against the
      // older one: a full replay can no longer reproduce the state.
      throw CorruptionError("no intact checkpoint generation survives");
    } else {
      // No previous slot ever completed => the log was never trimmed; a
      // full replay from LSN 0 is still complete. The torn slot goes, so
      // the next checkpoint cannot rotate it into the fallback position.
      newest_ = CheckpointSlot{};
    }
  }

  // Replay retained segments in order. Liveness bookkeeping (live counts,
  // tombstones and their waits) is rebuilt on the fly for every parsed
  // frame, including pre-checkpoint ones, by the write path's own
  // track_frame(), so post-recovery retirement decisions match a
  // never-crashed log. Retirement during the scan can only hit segments
  // behind the one being scanned.
  const std::uint64_t tail_segment =
      segments_.empty() ? 0 : segments_.rbegin()->first;
  for (auto& [id, seg] : segments_) {
    seg.frames = 0;
    seg.live = 0;
    seg.waiters.clear();
  }
  for (auto& [id, seg] : segments_) {
    // Scanning this segment seals the previous one, as its first append
    // did on the write path; if nothing in it is live any more it retires.
    // That happens when a tombstone only the crashed node's in-progress
    // checkpoint held dies during its own segment's scan — the same
    // retirement abandon_checkpoint() makes on a log that never crashed.
    const std::uint64_t sealing = open_segment_;
    open_segment_ = id;
    auto prev = segments_.find(sealing);
    if (prev != segments_.end() && sealing < id && prev->second.live == 0) {
      retire_segment(sealing);
    }
    std::size_t off = 0;
    std::uint64_t lsn = seg.first_lsn;
    bool scanned = false;
    auto torn_or_throw = [&](const char* what) {
      // Truncation is only sound for a torn in-flight write, i.e. damage
      // with nothing valid after it. A bad frame in an earlier segment —
      // or one followed by any validly-framed bytes — is real corruption:
      // truncating there would silently drop committed frames.
      bool valid_frame_follows = false;
      if (id == tail_segment) {
        for (std::size_t p = off + 1; p + kFrameHeader <= seg.bytes.size();
             ++p) {
          const std::uint32_t c = get_u32(seg.bytes.data() + p);
          const std::uint32_t l = get_u32(seg.bytes.data() + p + 4);
          if (p + kFrameHeader + l <= seg.bytes.size() &&
              crc32(std::span(seg.bytes).subspan(p + 4, 4 + l)) == c) {
            valid_frame_follows = true;
            break;
          }
        }
      }
      if (id != tail_segment || valid_frame_follows) {
        throw CorruptionError(std::string("mid-log damage: ") + what);
      }
      seg.bytes.resize(off);  // torn in-flight tail: truncate
      report.truncated_torn_tail = true;
    };
    while (off < seg.bytes.size()) {
      if (off + kFrameHeader > seg.bytes.size()) {
        torn_or_throw("partial frame header");
        break;
      }
      const std::uint32_t stored_crc = get_u32(seg.bytes.data() + off);
      const std::uint32_t len = get_u32(seg.bytes.data() + off + 4);
      if (off + kFrameHeader + len > seg.bytes.size() ||
          crc32(std::span(seg.bytes).subspan(off + 4, 4 + len)) !=
              stored_crc) {
        torn_or_throw("frame checksum mismatch");
        break;
      }
      const std::uint8_t* payload = seg.bytes.data() + off + kFrameHeader;
      if (len < kPayloadHeader) {
        throw CorruptionError("frame payload underrun");
      }
      const Op op = static_cast<Op>(payload[0]);
      const std::uint32_t key_len = get_u32(payload + 1);
      if (kPayloadHeader + key_len > len) {
        throw CorruptionError("frame key underrun");
      }
      std::string key(reinterpret_cast<const char*>(payload + kPayloadHeader),
                      key_len);
      const std::uint8_t* data = payload + kPayloadHeader + key_len;
      const std::size_t data_len = len - kPayloadHeader - key_len;

      track_frame(op, key, seg, lsn);
      if (lsn >= start_lsn) {
        switch (op) {
          case Op::reset: {
            auto& segs = index_[key];
            segs.clear();
            segs.emplace_back(data, data + data_len);
            break;
          }
          case Op::append:
            index_[key].emplace_back(data, data + data_len);
            break;
          case Op::erase:
            index_.erase(key);
            break;
        }
        report.replayed_bytes += kFrameHeader + len;
        ++report.replayed_frames;
        scanned = true;
      }
      off += kFrameHeader + len;
      ++lsn;
    }
    if (scanned) ++report.segments_scanned;
  }
  // next_lsn resumes after the youngest surviving frame.
  next_lsn_ = 0;
  for (const auto& [id, seg] : segments_) {
    next_lsn_ = std::max(next_lsn_, seg.first_lsn + seg.frames);
  }
  next_lsn_ = std::max(next_lsn_, start_lsn);
  return report;
}

bool SegmentLog::same_state(const SegmentLog& other) const {
  // Waiter entries of tombstones that died or were superseded are skipped
  // lazily: compare the live ones.
  const auto live_waiters = [](const SegmentLog& log, const Segment& seg) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t lsn : seg.waiters) {
      if (log.tombstones_.contains(lsn)) out.push_back(lsn);
    }
    return out;
  };
  const auto same_segment = [&](const Segment& a, const Segment& b) {
    return a.id == b.id && a.first_lsn == b.first_lsn &&
           a.frames == b.frames && a.live == b.live && a.bytes == b.bytes &&
           live_waiters(*this, a) == live_waiters(other, b);
  };
  const auto same_slot = [](const CheckpointSlot& a, const CheckpointSlot& b) {
    return a.valid == b.valid && a.complete == b.complete &&
           a.begin_lsn == b.begin_lsn && a.snapshot == b.snapshot;
  };
  // Ids of retired segments are pruned lazily (a checkpoint can retire
  // a key's live frames): compare what refers to retained segments, and
  // treat a key left with nothing retained as untracked.
  using KeyView = std::tuple<std::vector<std::uint64_t>,
                             std::vector<std::uint64_t>,
                             std::optional<std::uint64_t>>;
  const auto key_views = [](const SegmentLog& log) {
    std::map<std::string, KeyView> out;
    const auto retained = [&log](const std::vector<std::uint64_t>& ids) {
      std::vector<std::uint64_t> kept;
      for (std::uint64_t id : ids) {
        if (log.segments_.contains(id)) kept.push_back(id);
      }
      return kept;
    };
    for (const auto& [key, kf] : log.key_frame_segments_) {
      KeyView view{retained(kf.live), retained(kf.shadowed), kf.tombstone};
      if (std::get<0>(view).empty() && std::get<1>(view).empty() &&
          !kf.tombstone.has_value()) {
        continue;
      }
      out.emplace(key, std::move(view));
    }
    return out;
  };
  if (index_ != other.index_ || next_lsn_ != other.next_lsn_ ||
      parked_ != other.parked_ || open_segment_ != other.open_segment_ ||
      !same_slot(newest_, other.newest_) ||
      !same_slot(previous_, other.previous_) ||
      segments_.size() != other.segments_.size() ||
      tombstones_.size() != other.tombstones_.size() ||
      key_views(*this) != key_views(other)) {
    return false;
  }
  for (auto a = segments_.begin(), b = other.segments_.begin();
       a != segments_.end(); ++a, ++b) {
    if (!same_segment(a->second, b->second)) return false;
  }
  for (auto a = tombstones_.begin(), b = other.tombstones_.begin();
       a != tombstones_.end(); ++a, ++b) {
    if (a->first != b->first || a->second.key != b->second.key ||
        a->second.segment != b->second.segment ||
        a->second.waiting != b->second.waiting) {
      return false;
    }
  }
  return true;
}

std::size_t SegmentLog::log_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, seg] : segments_) total += seg.bytes.size();
  return total;
}

}  // namespace mar::storage
