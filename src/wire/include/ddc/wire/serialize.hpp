// Wire format for every message type the protocols exchange.
//
// Frame layout (all messages):
//   magic  u32   'D','D','C',version (=1)
//   type   u8    MessageType
//   body   ...   type-specific
//
// Classification bodies:
//   count  varint                       number of collections
//   per collection:
//     weight   i64                      quanta
//     summary  (per summary codec)
//     aux      u8 flag [+ varint dim + dim × f64]   (diagnostics only;
//                                       production senders omit it)
//
// Summary codecs:
//   Vector (centroid):  varint dim, dim × f64
//   Gaussian:           varint d, d × f64 mean, d(d+1)/2 × f64 lower
//                       triangle of Σ (symmetry is a format invariant,
//                       so only the lower triangle travels)
//   Histogram:          f64 lo, f64 hi, varint bins, bins × f64 mass
//
// PushSum body: varint dim, dim × f64 sum, f64 weight.
//
// append_classification writes a message into a caller's Encoder, so a
// batch frame (framing.hpp) can carry its records without a buffer per
// message; encode_classification is the same bytes in a buffer of its
// own.
#pragma once

#include <utility>

#include <ddc/core/collection.hpp>
#include <ddc/gossip/push_sum.hpp>
#include <ddc/linalg/matrix.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/stats/gaussian.hpp>
#include <ddc/stats/histogram.hpp>
#include <ddc/wire/codec.hpp>

namespace ddc::wire {

/// Message type tags (the u8 after the magic).
enum class MessageType : std::uint8_t {
  centroid_classification = 1,
  gaussian_classification = 2,
  histogram_classification = 3,
  push_sum = 4,
};

/// Per-summary-type encode/decode. Specialized for every shipped summary
/// domain; a new instantiation of the generic algorithm plugs in its own
/// specialization.
template <typename Summary>
struct SummaryCodec;  // primary template intentionally undefined

template <>
struct SummaryCodec<linalg::Vector> {
  static constexpr MessageType type = MessageType::centroid_classification;
  static void encode(Encoder& enc, const linalg::Vector& summary);
  static linalg::Vector decode(Decoder& dec);
};

template <>
struct SummaryCodec<stats::Gaussian> {
  static constexpr MessageType type = MessageType::gaussian_classification;
  static void encode(Encoder& enc, const stats::Gaussian& summary);
  static stats::Gaussian decode(Decoder& dec);
};

template <>
struct SummaryCodec<stats::Histogram> {
  static constexpr MessageType type = MessageType::histogram_classification;
  static void encode(Encoder& enc, const stats::Histogram& summary);
  static stats::Histogram decode(Decoder& dec);
};

/// Frame header helpers.
void encode_header(Encoder& enc, MessageType type);
/// Reads and validates the header; returns the message type.
[[nodiscard]] MessageType decode_header(Decoder& dec);

/// Appends a classification message. `include_aux` ships the auxiliary
/// mixture vectors too (diagnostic runs only — aux is O(n) per collection
/// and defeats the bounded-message-size property).
template <typename Summary>
void append_classification(
    Encoder& enc, const core::Classification<Summary>& classification,
    bool include_aux = false) {
  encode_header(enc, SummaryCodec<Summary>::type);
  enc.put_varint(classification.size());
  for (const auto& c : classification) {
    enc.put_i64(c.weight.quanta());
    SummaryCodec<Summary>::encode(enc, c.summary);
    if (include_aux && c.aux.has_value()) {
      enc.put_u8(1);
      enc.put_varint(c.aux->dim());
      for (const double x : *c.aux) enc.put_f64(x);
    } else {
      enc.put_u8(0);
    }
  }
}

/// The same message in a buffer of its own.
template <typename Summary>
[[nodiscard]] std::vector<std::byte> encode_classification(
    const core::Classification<Summary>& classification,
    bool include_aux = false) {
  Encoder enc;
  append_classification(enc, classification, include_aux);
  return std::move(enc).take();
}

/// The most quanta one classification message may carry in total. An
/// honest message carries part of the network's n·quanta_per_unit (2^40
/// for 10^6 nodes at the default 2^20); a forged one past this bound
/// could overflow the receiver's int64 weight sums, so it is rejected.
/// 2^53 also keeps every weight exact as a double.
inline constexpr std::int64_t kMaxMessageQuanta = std::int64_t{1} << 53;

/// Decodes a classification message; throws DecodeError on any malformed
/// content (bad magic, wrong type, non-positive weights, more than
/// kMaxMessageQuanta in total, truncation, trailing bytes).
template <typename Summary>
[[nodiscard]] core::Classification<Summary> decode_classification(
    std::span<const std::byte> bytes) {
  Decoder dec(bytes);
  const MessageType type = decode_header(dec);
  if (type != SummaryCodec<Summary>::type) {
    throw DecodeError("wire: unexpected message type " +
                      std::to_string(static_cast<int>(type)));
  }
  const std::uint64_t count = dec.get_varint();
  dec.check_count(count, sizeof(std::int64_t));  // ≥ one weight each
  core::Classification<Summary> out;
  out.collections().reserve(static_cast<std::size_t>(count));
  std::int64_t total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::int64_t quanta = dec.get_i64();
    if (quanta <= 0) {
      throw DecodeError("wire: non-positive collection weight");
    }
    if (quanta > kMaxMessageQuanta - total) {
      throw DecodeError("wire: message weight above kMaxMessageQuanta");
    }
    total += quanta;
    core::Collection<Summary> c{SummaryCodec<Summary>::decode(dec),
                                core::Weight::from_quanta(quanta),
                                {}};
    if (dec.get_u8() != 0) {
      const std::uint64_t dim = dec.get_varint();
      dec.check_count(dim, sizeof(double));
      linalg::Vector aux(dim);
      for (std::uint64_t j = 0; j < dim; ++j) aux[j] = dec.get_f64();
      c.aux = std::move(aux);
    }
    out.add(std::move(c));
  }
  dec.expect_done();
  return out;
}

/// Push-sum message encode/decode.
[[nodiscard]] std::vector<std::byte> encode_push_sum(
    const gossip::PushSumMessage& message);
[[nodiscard]] gossip::PushSumMessage decode_push_sum(
    std::span<const std::byte> bytes);

/// Peeks at a frame's message type without decoding the body.
[[nodiscard]] MessageType peek_type(std::span<const std::byte> bytes);

}  // namespace ddc::wire
