// Binary encoding primitives for the gossip wire format.
//
// On a real mote network the protocol's classifications travel as radio
// packets; this module defines the byte-level format. It is also how the
// paper's bandwidth claim — message size depends on k and d only, never on
// n — becomes measurable (bench/abl_message_bytes).
//
// Format conventions: little-endian fixed-width integers, IEEE-754 doubles
// (bit-copied), unsigned LEB128 ("varint") for counts. Decoding is fully
// bounds-checked and throws ddc::wire::DecodeError on malformed input —
// a sensor node must survive a corrupt packet.
//
// An Encoder only appends, so one buffer can hold a whole frame written
// in place (framing.hpp's appenders, serialize.hpp's
// append_classification). clear() keeps the capacity: an encoder reused
// across rounds allocates nothing once it has held its largest frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/error.hpp>

namespace ddc::wire {

/// Raised when decoding runs off the end of the buffer or meets an
/// invalid encoding. Deliberately distinct from ContractViolation: a bad
/// *packet* is an environmental fault, not a programming error.
class DecodeError : public Error {
 public:
  using Error::Error;
};

/// Append-only byte-buffer writer.
class Encoder {
 public:
  /// Forgets the bytes but keeps the capacity, for reuse.
  void clear() noexcept { buffer_.clear(); }
  /// Hands the bytes over, leaving the encoder empty.
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buffer_); }

  /// Fixed-width little-endian primitives.
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  /// IEEE-754 double, bit-copied.
  void put_f64(double v);
  /// Unsigned LEB128 — compact for the small counts (k, d) that dominate
  /// this protocol's messages.
  void put_varint(std::uint64_t v);
  /// Raw bytes, verbatim.
  void put_bytes(std::span<const std::byte> bytes);

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

/// Bounds-checked byte-buffer reader over a borrowed span.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::uint64_t get_varint();
  /// Borrows the next `n` bytes verbatim; the span aliases the decoder's
  /// underlying buffer and is valid only as long as that buffer lives.
  [[nodiscard]] std::span<const std::byte> get_bytes(std::size_t n);

  /// Remaining unread bytes.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// True when the buffer has been fully consumed.
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

  /// Requires the buffer to be fully consumed; throws DecodeError
  /// otherwise (trailing garbage means a framing bug or corruption).
  void expect_done() const;

  /// Validates a decoded element count BEFORE anything is allocated for
  /// it: the remaining buffer must plausibly hold `count` elements of at
  /// least `min_elem_size` bytes each. Guards against a corrupt frame
  /// claiming a huge count and driving the decoder into a giant
  /// allocation.
  void check_count(std::uint64_t count, std::size_t min_elem_size) const;

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ddc::wire
