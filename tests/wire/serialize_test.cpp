#include <ddc/wire/serialize.hpp>

#include <gtest/gtest.h>

#include <limits>

#include <ddc/stats/rng.hpp>
#include <ddc/summaries/histogram_summary.hpp>

namespace ddc::wire {
namespace {

using core::Classification;
using core::Collection;
using core::Weight;
using linalg::Matrix;
using linalg::Vector;
using stats::Gaussian;

Classification<Gaussian> sample_gaussian_classification(bool with_aux) {
  Classification<Gaussian> c;
  Collection<Gaussian> a{Gaussian(Vector{1.0, -2.0},
                                  Matrix{{2.0, 0.3}, {0.3, 1.0}}),
                         Weight::from_quanta(12345), {}};
  Collection<Gaussian> b{Gaussian::point_mass(Vector{7.0, 8.0}),
                         Weight::from_quanta(1), {}};
  if (with_aux) {
    a.aux = Vector{0.25, 0.75, 0.0};
    b.aux = Vector{0.0, 0.0, 1.0};
  }
  c.add(std::move(a));
  c.add(std::move(b));
  return c;
}

TEST(Serialize, GaussianClassificationRoundtrip) {
  const auto original = sample_gaussian_classification(false);
  const auto bytes = encode_classification(original);
  const auto decoded = decode_classification<Gaussian>(bytes);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].summary, original[0].summary);
  EXPECT_EQ(decoded[0].weight, original[0].weight);
  EXPECT_EQ(decoded[1].summary, original[1].summary);
  EXPECT_FALSE(decoded[0].aux.has_value());
}

TEST(Serialize, AuxVectorsTravelOnlyOnRequest) {
  const auto original = sample_gaussian_classification(true);
  const auto without = encode_classification(original, false);
  const auto with = encode_classification(original, true);
  EXPECT_GT(with.size(), without.size());

  const auto decoded = decode_classification<Gaussian>(with);
  ASSERT_TRUE(decoded[0].aux.has_value());
  EXPECT_EQ(*decoded[0].aux, (Vector{0.25, 0.75, 0.0}));
  EXPECT_FALSE(decode_classification<Gaussian>(without)[0].aux.has_value());
}

TEST(Serialize, CentroidClassificationRoundtrip) {
  Classification<Vector> c;
  c.add(Collection<Vector>{Vector{1.5, 2.5, -3.5}, Weight::from_quanta(99), {}});
  const auto bytes = encode_classification(c);
  const auto decoded = decode_classification<Vector>(bytes);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].summary, c[0].summary);
  EXPECT_EQ(decoded[0].weight.quanta(), 99);
}

TEST(Serialize, HistogramClassificationRoundtrip) {
  using Policy = summaries::HistogramPolicy<summaries::DefaultBinning>;
  Classification<stats::Histogram> c;
  stats::Histogram h = Policy::val_to_summary(3.0);
  h.add(-7.0, 2.5);
  c.add(Collection<stats::Histogram>{std::move(h), Weight::from_quanta(7), {}});
  const auto bytes = encode_classification(c);
  const auto decoded = decode_classification<stats::Histogram>(bytes);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].summary, c[0].summary);
}

TEST(Serialize, PushSumRoundtrip) {
  const gossip::PushSumMessage msg{Vector{1.0, -2.0, 3.0}, 0.625};
  const auto bytes = encode_push_sum(msg);
  const auto decoded = decode_push_sum(bytes);
  EXPECT_EQ(decoded.sum, msg.sum);
  EXPECT_EQ(decoded.weight, msg.weight);
}

TEST(Serialize, PeekTypeIdentifiesFrames) {
  EXPECT_EQ(peek_type(encode_push_sum({Vector{1.0}, 0.5})),
            MessageType::push_sum);
  EXPECT_EQ(peek_type(encode_classification(sample_gaussian_classification(false))),
            MessageType::gaussian_classification);
}

TEST(Serialize, WrongTypeRejected) {
  const auto bytes = encode_push_sum({Vector{1.0}, 0.5});
  EXPECT_THROW((void)decode_classification<Gaussian>(bytes), DecodeError);
}

TEST(Serialize, BadMagicRejected) {
  auto bytes = encode_push_sum({Vector{1.0}, 0.5});
  bytes[0] = std::byte{0xff};
  EXPECT_THROW((void)decode_push_sum(bytes), DecodeError);
}

TEST(Serialize, WrongVersionRejected) {
  auto bytes = encode_push_sum({Vector{1.0}, 0.5});
  bytes[3] = std::byte{9};  // version byte
  EXPECT_THROW((void)decode_push_sum(bytes), DecodeError);
}

TEST(Serialize, TruncationAnywhereRejected) {
  const auto bytes = encode_classification(sample_gaussian_classification(true), true);
  // Chop the buffer at every length; decoding must throw, never crash or
  // return garbage.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_THROW((void)decode_classification<Gaussian>(prefix), DecodeError)
        << "prefix length " << len;
  }
  EXPECT_NO_THROW((void)decode_classification<Gaussian>(bytes));
}

TEST(Serialize, TrailingGarbageRejected) {
  auto bytes = encode_push_sum({Vector{1.0}, 0.5});
  bytes.push_back(std::byte{0});
  EXPECT_THROW((void)decode_push_sum(bytes), DecodeError);
}

TEST(Serialize, NonPositiveWeightRejected) {
  Classification<Vector> c;
  c.add(Collection<Vector>{Vector{1.0}, Weight::from_quanta(1), {}});
  auto bytes = encode_classification(c);
  // The weight i64 sits right after magic(4) + type(1) + count(1 varint).
  for (std::size_t i = 0; i < 8; ++i) bytes[6 + i] = std::byte{0};
  EXPECT_THROW((void)decode_classification<Vector>(bytes), DecodeError);
}

TEST(Serialize, MessageWeightAboveBoundRejected) {
  const auto encode = [](std::int64_t first, std::int64_t second) {
    Classification<Vector> c;
    c.add(Collection<Vector>{Vector{1.0}, Weight::from_quanta(first), {}});
    c.add(Collection<Vector>{Vector{2.0}, Weight::from_quanta(second), {}});
    return encode_classification(c);
  };
  const std::int64_t half = kMaxMessageQuanta / 2;
  EXPECT_EQ(decode_classification<Vector>(encode(half, half))
                .total_weight()
                .quanta(),
            kMaxMessageQuanta);
  EXPECT_THROW((void)decode_classification<Vector>(encode(half, half + 1)),
               DecodeError);
  // Each weight alone in range, their sum past int64: still rejected.
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW((void)decode_classification<Vector>(encode(1, huge)),
               DecodeError);
  EXPECT_THROW((void)decode_classification<Vector>(encode(huge, huge)),
               DecodeError);
}

TEST(Serialize, NonFiniteValuesRejected) {
  const gossip::PushSumMessage msg{Vector{1.0}, 0.5};
  auto bytes = encode_push_sum(msg);
  // Overwrite the sum's f64 (after magic 4 + type 1 + dim varint 1) with
  // a NaN bit pattern.
  for (std::size_t i = 0; i < 8; ++i) bytes[6 + i] = std::byte{0xff};
  EXPECT_THROW((void)decode_push_sum(bytes), DecodeError);
}

TEST(Serialize, AbsurdDimensionWithoutPayloadRejected) {
  // A frame claiming a huge Gaussian dimension with no payload must fail
  // via the bounds checks (resource-exhaustion guard), not crash or hang.
  Encoder enc;
  encode_header(enc, MessageType::gaussian_classification);
  enc.put_varint(1);          // one collection
  enc.put_i64(5);             // weight
  enc.put_varint(1 << 20);    // absurd dimension, no payload follows
  EXPECT_THROW((void)decode_classification<Gaussian>(enc.bytes()), DecodeError);
}

TEST(Serialize, MessageSizeIndependentOfNetworkSize) {
  // The paper's bandwidth claim, at byte granularity: a k-collection
  // Gaussian message in R^d costs a fixed number of bytes regardless of n.
  const auto size_for = [](std::int64_t quanta) {
    Classification<Gaussian> c;
    c.add(Collection<Gaussian>{Gaussian(2), Weight::from_quanta(quanta), {}});
    c.add(Collection<Gaussian>{Gaussian(2), Weight::from_quanta(quanta), {}});
    return encode_classification(c).size();
  };
  EXPECT_EQ(size_for(100), size_for(1'000'000'000));
}

}  // namespace
}  // namespace ddc::wire
