#include "serial/decoder.h"

#include <bit>
#include <cstring>

namespace mar::serial {

void Decoder::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw DecodeError("decode past end of buffer (need " + std::to_string(n) +
                      ", have " + std::to_string(data_.size() - pos_) + ")");
  }
}

bool Decoder::consume_if_next(std::span<const std::uint8_t> bytes) {
  if (bytes.size() > remaining() ||
      (!bytes.empty() &&
       std::memcmp(data_.data() + pos_, bytes.data(), bytes.size()) != 0)) {
    return false;
  }
  pos_ += bytes.size();
  return true;
}

std::uint8_t Decoder::read_u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Decoder::read_u16() {
  need(2);
  const auto* p = data_.data() + pos_;
  pos_ += 2;
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t Decoder::read_u32() {
  need(4);
  const auto* p = data_.data() + pos_;
  pos_ += 4;
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t Decoder::read_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

bool Decoder::read_bool() {
  const auto v = read_u8();
  if (v > 1) throw DecodeError("invalid bool value");
  return v != 0;
}

std::uint64_t Decoder::read_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw DecodeError("varint too long");
    const auto b = read_u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::int64_t Decoder::read_i64() {
  const auto u = read_varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

double Decoder::read_double() { return std::bit_cast<double>(read_u64()); }

std::string Decoder::read_string() {
  return std::string(read_string_view());
}

std::string_view Decoder::read_string_view() {
  const auto n = read_varint();
  need(n);
  std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::span<const std::uint8_t> Decoder::read_bytes_view() {
  const auto n = read_varint();
  need(n);
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::vector<std::uint8_t> Decoder::read_bytes() {
  const auto n = read_varint();
  need(n);
  std::vector<std::uint8_t> b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                              data_.begin() +
                                  static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

std::uint64_t Decoder::read_count() {
  const auto n = read_varint();
  if (n > remaining()) {
    throw DecodeError("collection count " + std::to_string(n) +
                      " exceeds remaining buffer (" +
                      std::to_string(remaining()) + " bytes)");
  }
  return n;
}

void Decoder::expect_end() const {
  if (!at_end()) {
    throw DecodeError("trailing bytes after decode: " +
                      std::to_string(remaining()));
  }
}

}  // namespace mar::serial
