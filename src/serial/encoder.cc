#include "serial/encoder.h"

#include <bit>
#include <cstring>

namespace mar::serial {

void Encoder::write_u8(std::uint8_t v) { buf_.push_back(v); }

void Encoder::write_u16(std::uint16_t v) {
  write_u8(static_cast<std::uint8_t>(v));
  write_u8(static_cast<std::uint8_t>(v >> 8));
}

void Encoder::write_u32(std::uint32_t v) {
  write_u16(static_cast<std::uint16_t>(v));
  write_u16(static_cast<std::uint16_t>(v >> 16));
}

void Encoder::write_u64(std::uint64_t v) {
  write_u32(static_cast<std::uint32_t>(v));
  write_u32(static_cast<std::uint32_t>(v >> 32));
}

void Encoder::write_bool(bool v) { write_u8(v ? 1 : 0); }

void Encoder::write_varint(std::uint64_t v) {
  while (v >= 0x80) {
    write_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  write_u8(static_cast<std::uint8_t>(v));
}

void Encoder::write_i64(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  write_varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Encoder::write_double(double v) {
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void Encoder::write_string(std::string_view s) {
  reserve(buf_.size() + blob_size(s.size()));
  write_varint(s.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void Encoder::write_bytes(std::span<const std::uint8_t> b) {
  reserve(buf_.size() + blob_size(b.size()));
  write_varint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Encoder::write_raw(std::span<const std::uint8_t> b) {
  reserve(buf_.size() + b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

}  // namespace mar::serial
