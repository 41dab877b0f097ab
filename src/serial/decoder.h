// Binary decoder matching serial::Encoder.
//
// All reads are bounds-checked; a malformed buffer raises DecodeError
// rather than reading out of bounds. Decoding failures indicate corrupted
// stable storage or a protocol bug, both of which are fatal for the
// affected message, so an exception is the appropriate channel.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mar::serial {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  bool read_bool();
  std::uint64_t read_varint();
  std::int64_t read_i64();
  double read_double();
  std::string read_string();
  /// Zero-copy string read: the returned view aliases the decode buffer
  /// and is valid only while that buffer lives. For callers that compare
  /// or dispatch on the string without retaining it (type tags, map keys
  /// looked up immediately), this skips the per-read allocation.
  std::string_view read_string_view();
  std::vector<std::uint8_t> read_bytes();
  /// Zero-copy blob read: the returned span aliases the decode buffer and
  /// is valid only while that buffer lives. Convoy framing uses this to
  /// hand nested payloads (agent images, deltas) to their own decoders
  /// without copying them out of the message first.
  std::span<const std::uint8_t> read_bytes_view();
  /// A collection length prefix. Every element costs at least one byte on
  /// the wire, so a count exceeding the remaining buffer is malformed —
  /// checked HERE, before the caller sizes a container from it (a flipped
  /// length byte must not trigger a gigantic allocation).
  std::uint64_t read_count();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  /// Read offset; with span_since() a caller validates a stretch of the
  /// buffer by decoding (or skipping) it, then takes its bytes verbatim.
  [[nodiscard]] std::size_t position() const { return pos_; }
  /// The bytes consumed since offset `mark` (a previous position()).
  [[nodiscard]] std::span<const std::uint8_t> span_since(
      std::size_t mark) const {
    return data_.subspan(mark, pos_ - mark);
  }
  /// Consume `bytes` when the buffer continues with exactly them (one
  /// memcmp); otherwise leave the position where it was.
  [[nodiscard]] bool consume_if_next(std::span<const std::uint8_t> bytes);

  /// Assert the buffer has been fully consumed (catches framing bugs).
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mar::serial
