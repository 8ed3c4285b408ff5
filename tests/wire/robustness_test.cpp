// Truncation and corruption robustness — the attack surface once
// payloads arrive off the network (ISSUE 2). Every strict prefix of a
// valid encoding must throw DecodeError: decoding is deterministic and
// prefix-based, so a truncated buffer either runs out mid-field or
// leaves the decoder short of expect_done — it can never silently
// produce a classification or over-allocate. Bit flips must decode or
// throw DecodeError, never crash or throw anything else.
#include <vector>

#include <gtest/gtest.h>

#include <ddc/wire/framing.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc::wire {
namespace {

using core::Classification;
using core::Collection;
using core::Weight;
using linalg::Matrix;
using linalg::Vector;
using stats::Gaussian;

Classification<Gaussian> sample_gaussian() {
  Classification<Gaussian> c;
  c.add(Collection<Gaussian>{
      Gaussian(Vector{0.5, -1.5}, Matrix{{1.5, 0.2}, {0.2, 0.75}}),
      Weight::from_quanta(4096), Vector{0.5, 0.5}});
  c.add(Collection<Gaussian>{Gaussian::point_mass(Vector{3.0, 4.0}),
                             Weight::from_quanta(77), {}});
  return c;
}

Classification<Vector> sample_centroid() {
  Classification<Vector> c;
  c.add(Collection<Vector>{Vector{1.0, 2.0, 3.0}, Weight::from_quanta(10), {}});
  c.add(Collection<Vector>{Vector{-9.0, 0.0, 0.5}, Weight::from_quanta(3), {}});
  return c;
}

template <typename Fn>
void expect_graceful(Fn decode_call) {
  try {
    decode_call();
  } catch (const DecodeError&) {
    // Expected for malformed input; anything else escapes and fails.
  }
}

template <typename DecodeFn>
void assert_every_prefix_throws(const std::vector<std::byte>& bytes,
                                DecodeFn decode) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_THROW((void)decode(prefix), DecodeError)
        << "prefix length " << len << " of " << bytes.size();
  }
}

TEST(WireRobustness, GaussianPrefixesAllThrow) {
  const auto bytes = encode_classification(sample_gaussian(), true);
  assert_every_prefix_throws(bytes, [](std::span<const std::byte> b) {
    return decode_classification<Gaussian>(b);
  });
}

TEST(WireRobustness, CentroidPrefixesAllThrow) {
  const auto bytes = encode_classification(sample_centroid());
  assert_every_prefix_throws(bytes, [](std::span<const std::byte> b) {
    return decode_classification<Vector>(b);
  });
}

TEST(WireRobustness, FramedGossipPrefixesAllThrow) {
  // The full networked path: envelope + payload. A prefix either breaks
  // the envelope or truncates the payload inside it.
  const auto payload = encode_classification(sample_gaussian());
  const auto bytes = encode_frame(FrameKind::gossip, 5, 17, payload);
  assert_every_prefix_throws(bytes, [](std::span<const std::byte> b) {
    const Frame frame = decode_frame(b);
    return decode_classification<Gaussian>(frame.payload);
  });
}

TEST(WireRobustness, EveryBitFlipIsGraceful) {
  const auto bytes = encode_classification(sample_gaussian(), true);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      expect_graceful(
          [&] { (void)decode_classification<Gaussian>(mutated); });
    }
  }
}

TEST(WireRobustness, EveryBitFlipOfFrameIsGraceful) {
  const auto payload = encode_classification(sample_centroid());
  const auto bytes = encode_frame(FrameKind::gossip, 1, 2, payload);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      expect_graceful([&] {
        const Frame frame = decode_frame(mutated);
        (void)decode_classification<Vector>(frame.payload);
      });
    }
  }
}

std::vector<std::byte> sample_batch() {
  const auto gm = encode_classification(sample_gaussian());
  const auto cent = encode_classification(sample_centroid());
  const std::vector<BatchRecord> records = {
      {3, 900, BatchTag::forward, gm},
      {900, 3, BatchTag::reply, cent},
      {17, 18, BatchTag::forward, {}},
  };
  return encode_batch(9, 1, 3, records);
}

TEST(WireRobustness, BatchPrefixesAllThrow) {
  assert_every_prefix_throws(sample_batch(), [](std::span<const std::byte> b) {
    return decode_batch(b);
  });
}

TEST(WireRobustness, FramedBatchPrefixesAllThrow) {
  // The full cluster path: envelope + batch + per-record payloads.
  const auto bytes = encode_frame(FrameKind::batch, 1, 10, sample_batch());
  assert_every_prefix_throws(bytes, [](std::span<const std::byte> b) {
    return decode_batch(decode_frame(b).payload);
  });
}

TEST(WireRobustness, EveryBitFlipOfBatchFrameIsGraceful) {
  const auto bytes = encode_frame(FrameKind::batch, 1, 10, sample_batch());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = bytes;
      mutated[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      expect_graceful([&] {
        const Frame frame = decode_frame(mutated);
        if (frame.kind != FrameKind::batch) return;
        const Batch batch = decode_batch(frame.payload);
        // Walk every record payload through the message codec, as the
        // shard engine does on delivery.
        for (const BatchRecord& rec : batch.records) {
          if (rec.tag == BatchTag::forward) {
            (void)decode_classification<Gaussian>(rec.payload);
          } else {
            (void)decode_classification<Vector>(rec.payload);
          }
        }
      });
    }
  }
}

TEST(WireRobustness, BatchCountCorruptionCannotOverallocate) {
  // Blow the record-count varint up to a huge value: check_count must
  // reject it before anything is reserved.
  const auto bytes = sample_batch();
  // round u64 + shard varint (1 byte) + num_shards varint (1 byte).
  const std::size_t count_offset = 10;
  std::vector<std::byte> corrupted(bytes.begin(),
                                   bytes.begin() + count_offset);
  for (int i = 0; i < 9; ++i) corrupted.push_back(std::byte{0xff});
  corrupted.push_back(std::byte{0x7f});
  corrupted.insert(corrupted.end(), bytes.begin() + count_offset + 1,
                   bytes.end());
  EXPECT_THROW((void)decode_batch(corrupted), DecodeError);
}

TEST(WireRobustness, BatchRecordLengthCorruptionCannotOverrun) {
  // Corrupt a record's payload-length varint to claim more bytes than
  // the frame holds. The record's payload span borrows, so the encoded
  // bytes need a name that outlives encode_batch.
  const std::vector<std::byte> payload =
      encode_classification(sample_centroid());
  const std::vector<BatchRecord> records = {
      {1, 2, BatchTag::forward, payload},
  };
  auto bytes = encode_batch(0, 0, 2, records);
  // Header: round (8) + shard (1) + num_shards (1) + count (1); record:
  // src (1) + dst (1) + tag (1), then the length varint.
  const std::size_t len_offset = 14;
  ASSERT_LT(len_offset, bytes.size());
  std::vector<std::byte> corrupted(bytes.begin(), bytes.begin() + len_offset);
  for (int i = 0; i < 9; ++i) corrupted.push_back(std::byte{0xff});
  corrupted.push_back(std::byte{0x7f});
  corrupted.insert(corrupted.end(), bytes.begin() + len_offset + 1,
                   bytes.end());
  EXPECT_THROW((void)decode_batch(corrupted), DecodeError);
}

TEST(WireRobustness, LengthFieldCorruptionCannotOverallocate) {
  // Blow the collection-count varint up to a huge value: the decoder's
  // capacity check must reject it instead of reserving terabytes.
  auto bytes = encode_classification(sample_centroid());
  // Magic is 4 bytes, message type 1 byte; the count varint follows.
  const std::size_t count_offset = 5;
  ASSERT_LT(count_offset, bytes.size());
  std::vector<std::byte> corrupted(bytes.begin(),
                                   bytes.begin() + count_offset);
  for (int i = 0; i < 9; ++i) corrupted.push_back(std::byte{0xff});
  corrupted.push_back(std::byte{0x7f});
  corrupted.insert(corrupted.end(), bytes.begin() + count_offset + 1,
                   bytes.end());
  EXPECT_THROW((void)decode_classification<Vector>(corrupted), DecodeError);
}

}  // namespace
}  // namespace ddc::wire
