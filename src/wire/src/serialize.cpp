#include <ddc/wire/serialize.hpp>

#include <cmath>
#include <utility>

namespace ddc::wire {

namespace {

constexpr std::uint32_t kMagicBase = 0x00434444;  // "DDC\0" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMagic = kMagicBase | (kVersion << 24);

/// Shared helper: a finite double or DecodeError (NaN/Inf in a packet is
/// corruption, and letting it into the protocol poisons every merge).
double finite(double v) {
  if (!std::isfinite(v)) throw DecodeError("wire: non-finite floating value");
  return v;
}

}  // namespace

void encode_header(Encoder& enc, MessageType type) {
  enc.put_u32(kMagic);
  enc.put_u8(static_cast<std::uint8_t>(type));
}

MessageType decode_header(Decoder& dec) {
  const std::uint32_t magic = dec.get_u32();
  if ((magic & 0x00ffffff) != kMagicBase) {
    throw DecodeError("wire: bad magic");
  }
  if ((magic >> 24) != kVersion) {
    throw DecodeError("wire: unsupported version " +
                      std::to_string(magic >> 24));
  }
  const std::uint8_t type = dec.get_u8();
  if (type < 1 || type > 4) {
    throw DecodeError("wire: unknown message type " + std::to_string(type));
  }
  return static_cast<MessageType>(type);
}

void SummaryCodec<linalg::Vector>::encode(Encoder& enc,
                                          const linalg::Vector& summary) {
  enc.put_varint(summary.dim());
  for (const double x : summary) enc.put_f64(x);
}

linalg::Vector SummaryCodec<linalg::Vector>::decode(Decoder& dec) {
  const std::uint64_t dim = dec.get_varint();
  dec.check_count(dim, sizeof(double));
  linalg::Vector out(dim);
  for (std::uint64_t i = 0; i < dim; ++i) out[i] = finite(dec.get_f64());
  return out;
}

void SummaryCodec<stats::Gaussian>::encode(Encoder& enc,
                                           const stats::Gaussian& summary) {
  const std::size_t d = summary.dim();
  enc.put_varint(d);
  for (const double x : summary.mean()) enc.put_f64(x);
  // Lower triangle of the (symmetric) covariance, row by row.
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c <= r; ++c) enc.put_f64(summary.cov()(r, c));
  }
}

stats::Gaussian SummaryCodec<stats::Gaussian>::decode(Decoder& dec) {
  const std::uint64_t d = dec.get_varint();
  dec.check_count(d, sizeof(double));  // mean alone needs d doubles
  linalg::Vector mean(d);
  for (std::uint64_t i = 0; i < d; ++i) mean[i] = finite(dec.get_f64());
  linalg::Matrix cov(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      const double v = finite(dec.get_f64());
      cov(r, c) = v;
      cov(c, r) = v;
    }
  }
  try {
    return stats::Gaussian(std::move(mean), std::move(cov));
  } catch (const ContractViolation& e) {
    // e.g. a negative diagonal smuggled in: surface as a packet fault.
    throw DecodeError(std::string("wire: invalid Gaussian: ") + e.what());
  }
}

void SummaryCodec<stats::Histogram>::encode(Encoder& enc,
                                            const stats::Histogram& summary) {
  enc.put_f64(summary.lo());
  enc.put_f64(summary.hi());
  enc.put_varint(summary.bins());
  for (const double m : summary.mass()) enc.put_f64(m);
}

stats::Histogram SummaryCodec<stats::Histogram>::decode(Decoder& dec) {
  const double lo = finite(dec.get_f64());
  const double hi = finite(dec.get_f64());
  const std::uint64_t bins = dec.get_varint();
  dec.check_count(bins, sizeof(double));
  if (!(lo < hi) || bins == 0) {
    throw DecodeError("wire: invalid histogram binning");
  }
  stats::Histogram out(lo, hi, bins);
  for (std::uint64_t b = 0; b < bins; ++b) {
    const double m = finite(dec.get_f64());
    if (m < 0.0) throw DecodeError("wire: negative histogram mass");
    out.add(out.bin_center(b), m);
  }
  return out;
}

std::vector<std::byte> encode_push_sum(const gossip::PushSumMessage& message) {
  Encoder enc;
  encode_header(enc, MessageType::push_sum);
  enc.put_varint(message.sum.dim());
  for (const double x : message.sum) enc.put_f64(x);
  enc.put_f64(message.weight);
  return std::move(enc).take();
}

gossip::PushSumMessage decode_push_sum(std::span<const std::byte> bytes) {
  Decoder dec(bytes);
  if (decode_header(dec) != MessageType::push_sum) {
    throw DecodeError("wire: not a push-sum message");
  }
  const std::uint64_t dim = dec.get_varint();
  dec.check_count(dim, sizeof(double));
  gossip::PushSumMessage out;
  out.sum = linalg::Vector(dim);
  for (std::uint64_t i = 0; i < dim; ++i) out.sum[i] = finite(dec.get_f64());
  out.weight = finite(dec.get_f64());
  if (out.weight < 0.0) throw DecodeError("wire: negative push-sum weight");
  dec.expect_done();
  return out;
}

MessageType peek_type(std::span<const std::byte> bytes) {
  Decoder dec(bytes);
  return decode_header(dec);
}

}  // namespace ddc::wire
