#include <ddc/wire/codec.hpp>

#include <cstring>

namespace ddc::wire {

namespace {

template <typename T>
void put_le(std::vector<std::byte>& buffer, T value) {
  // Serialize little-endian regardless of host order, in one resize.
  const std::size_t at = buffer.size();
  buffer.resize(at + sizeof(T));
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buffer[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
}

template <typename T>
T get_le(std::span<const std::byte> bytes, std::size_t pos) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    // This IS the sanctioned bounds-checked reader: every Decoder
    // caller guards pos + sizeof(T) via need() before dispatching
    // here. ddcverify: allow(wire-taint)
    value |= static_cast<T>(static_cast<std::uint8_t>(bytes[pos + i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

void Encoder::put_u8(std::uint8_t v) { buffer_.push_back(std::byte{v}); }
void Encoder::put_u32(std::uint32_t v) { put_le(buffer_, v); }
void Encoder::put_u64(std::uint64_t v) { put_le(buffer_, v); }
void Encoder::put_i64(std::int64_t v) {
  put_le(buffer_, static_cast<std::uint64_t>(v));
}

void Encoder::put_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_le(buffer_, bits);
}

void Encoder::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::byte>(v));
}

void Encoder::put_bytes(std::span<const std::byte> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void Decoder::need(std::size_t n) const {
  if (remaining() < n) {
    throw DecodeError("wire: truncated buffer (need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()) + ")");
  }
}

std::uint8_t Decoder::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t Decoder::get_u32() {
  need(4);
  const auto v = get_le<std::uint32_t>(bytes_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::get_u64() {
  need(8);
  const auto v = get_le<std::uint64_t>(bytes_, pos_);
  pos_ += 8;
  return v;
}

std::int64_t Decoder::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double Decoder::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t Decoder::get_varint() {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    need(1);
    const auto b = static_cast<std::uint8_t>(bytes_[pos_++]);
    value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // Reject non-canonical zero-padding of the final group (e.g. 0x80
      // 0x00) so each integer has exactly one encoding.
      if (b == 0 && shift != 0) {
        throw DecodeError("wire: non-canonical varint");
      }
      return value;
    }
  }
  throw DecodeError("wire: varint longer than 64 bits");
}

std::span<const std::byte> Decoder::get_bytes(std::size_t n) {
  need(n);
  const auto view = bytes_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void Decoder::check_count(std::uint64_t count,
                          std::size_t min_elem_size) const {
  if (min_elem_size != 0 && count > remaining() / min_elem_size) {
    throw DecodeError("wire: element count " + std::to_string(count) +
                      " exceeds remaining buffer capacity");
  }
}

void Decoder::expect_done() const {
  if (!done()) {
    throw DecodeError("wire: " + std::to_string(remaining()) +
                      " trailing bytes after message");
  }
}

}  // namespace ddc::wire
