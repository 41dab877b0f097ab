// Binary encoder for agent state capture.
//
// Mole relied on Java object serialization to capture an agent's code and
// data before migration; this library replaces that with an explicit,
// versioned little-endian wire format. Sizes produced by the encoder are
// byte-accurate, which the migration-cost experiments (E1, E4) depend on.
//
// Format primitives:
//   - fixed-width little-endian integers (u8/u16/u32/u64)
//   - LEB128 varints for lengths and optionally-small values
//   - zigzag varints for signed integers
//   - IEEE-754 doubles (bit pattern as u64)
//   - length-prefixed strings / byte blobs
//
// Sizing: every serializable type exposes a byte-exact size (Value::
// encoded_size, RollbackLog::byte_size, ...) computed WITHOUT encoding,
// so callers on the hot commit path can pre-size the buffer — a full
// agent image is a single allocation (Encoder(reserve_hint)).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace mar::serial {

using Bytes = std::vector<std::uint8_t>;

/// Wire size of an unsigned LEB128 varint (1..10 bytes).
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Wire size of a zigzag-encoded signed varint.
[[nodiscard]] constexpr std::size_t i64_size(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  return varint_size((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

/// Wire size of a length-prefixed string / byte blob.
[[nodiscard]] constexpr std::size_t blob_size(std::size_t n) {
  return varint_size(n) + n;
}

class Encoder {
 public:
  Encoder() = default;
  /// Pre-size the buffer for `reserve_hint` bytes of payload: callers that
  /// know (or can compute) the encoded size write without reallocating.
  explicit Encoder(std::size_t reserve_hint) { buf_.reserve(reserve_hint); }
  /// Append to an existing buffer (take() hands it back, grown).
  explicit Encoder(Bytes buf) : buf_(std::move(buf)) {}

  /// Grow the buffer capacity to at least `total` payload bytes. Growth is
  /// geometric (like the underlying vector), so interleaving reserve()
  /// with writes stays amortized O(1) even when hints are underestimates.
  void reserve(std::size_t total) {
    if (total <= buf_.capacity()) return;
    buf_.reserve(std::max(total, buf_.capacity() + buf_.capacity() / 2));
  }

  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_bool(bool v);
  /// Unsigned LEB128 varint.
  void write_varint(std::uint64_t v);
  /// Zigzag-encoded signed varint.
  void write_i64(std::int64_t v);
  void write_double(double v);
  /// Varint length followed by raw bytes.
  void write_string(std::string_view s);
  void write_bytes(std::span<const std::uint8_t> b);
  /// Raw bytes, no length prefix: splices already-encoded data verbatim.
  void write_raw(std::span<const std::uint8_t> b);

  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

}  // namespace mar::serial
