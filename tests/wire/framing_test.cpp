#include <ddc/wire/framing.hpp>

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/wire/serialize.hpp>

namespace ddc::wire {
namespace {

std::vector<std::byte> sample_payload() {
  return {std::byte{0xde}, std::byte{0xad}, std::byte{0xbe}, std::byte{0xef}};
}

TEST(Framing, GossipRoundtripCarriesPayload) {
  const auto payload = sample_payload();
  const auto bytes = encode_frame(FrameKind::gossip, 7, 42, payload);
  const Frame frame = decode_frame(bytes);
  EXPECT_EQ(frame.kind, FrameKind::gossip);
  EXPECT_EQ(frame.sender, 7u);
  EXPECT_EQ(frame.seq, 42u);
  ASSERT_EQ(frame.payload.size(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(frame.payload[i], payload[i]);
  }
}

TEST(Framing, ProbeAndAckRoundtripEmpty) {
  for (const auto kind : {FrameKind::probe, FrameKind::probe_ack}) {
    const auto bytes = encode_frame(kind, 3, 9);
    const Frame frame = decode_frame(bytes);
    EXPECT_EQ(frame.kind, kind);
    EXPECT_EQ(frame.sender, 3u);
    EXPECT_EQ(frame.seq, 9u);
    EXPECT_TRUE(frame.payload.empty());
  }
}

TEST(Framing, GossipPayloadMayBeEmpty) {
  const auto bytes = encode_frame(FrameKind::gossip, 0, 1);
  EXPECT_TRUE(decode_frame(bytes).payload.empty());
}

TEST(Framing, BadMagicRejected) {
  auto bytes = encode_frame(FrameKind::gossip, 1, 1, sample_payload());
  bytes[0] ^= std::byte{0xff};
  EXPECT_THROW((void)decode_frame(bytes), DecodeError);
}

TEST(Framing, UnsupportedVersionRejected) {
  auto bytes = encode_frame(FrameKind::gossip, 1, 1, sample_payload());
  // The version rides in the magic's top byte (little-endian offset 3).
  bytes[3] = std::byte{99};
  EXPECT_THROW((void)decode_frame(bytes), DecodeError);
}

TEST(Framing, UnknownKindRejected) {
  auto bytes = encode_frame(FrameKind::gossip, 1, 1, sample_payload());
  bytes[4] = std::byte{0};
  EXPECT_THROW((void)decode_frame(bytes), DecodeError);
  bytes[4] = std::byte{6};  // first kind beyond batch_ack
  EXPECT_THROW((void)decode_frame(bytes), DecodeError);
}

TEST(Framing, ProbeWithPayloadRejected) {
  auto probe = encode_frame(FrameKind::probe, 1, 1);
  probe.push_back(std::byte{0x55});
  EXPECT_THROW((void)decode_frame(probe), DecodeError);
}

TEST(Framing, EveryStrictPrefixOfProbeRejected) {
  const auto bytes = encode_frame(FrameKind::probe_ack, 12, 34);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        (void)decode_frame(std::span<const std::byte>(bytes.data(), len)),
        DecodeError)
        << "prefix length " << len;
  }
}

TEST(Framing, PayloadBorrowsFromInputBuffer) {
  const auto payload = sample_payload();
  const auto bytes = encode_frame(FrameKind::gossip, 2, 5, payload);
  const Frame frame = decode_frame(bytes);
  ASSERT_GE(frame.payload.data(), bytes.data());
  EXPECT_EQ(frame.payload.data() + frame.payload.size(),
            bytes.data() + bytes.size());
}

std::vector<std::byte> sample_batch_payload() {
  const auto a = sample_payload();
  const std::vector<std::byte> b{std::byte{0x01}};
  const std::vector<BatchRecord> records = {
      {12, 305, BatchTag::forward, a},
      {305, 12, BatchTag::reply, b},
      {7, 8, BatchTag::forward, {}},  // empty payload is legal
  };
  return encode_batch(41, 2, 4, records);
}

TEST(Framing, BatchRoundtrip) {
  const auto payload = sample_batch_payload();
  const Batch batch = decode_batch(payload);
  EXPECT_EQ(batch.round, 41u);
  EXPECT_EQ(batch.shard, 2u);
  EXPECT_EQ(batch.num_shards, 4u);
  ASSERT_EQ(batch.records.size(), 3u);
  EXPECT_EQ(batch.records[0].src, 12u);
  EXPECT_EQ(batch.records[0].dst, 305u);
  EXPECT_EQ(batch.records[0].tag, BatchTag::forward);
  ASSERT_EQ(batch.records[0].payload.size(), 4u);
  EXPECT_EQ(batch.records[1].tag, BatchTag::reply);
  EXPECT_TRUE(batch.records[2].payload.empty());
  // Re-encoding the decoded view reproduces the bytes exactly (the
  // bijection the fuzz harness leans on).
  EXPECT_EQ(encode_batch(batch.round, batch.shard, batch.num_shards,
                         batch.records),
            payload);
}

TEST(Framing, BatchFrameCarriesPayload) {
  // Unlike probes, batch frames carry payloads through the envelope.
  const auto payload = sample_batch_payload();
  const auto bytes = encode_frame(FrameKind::batch, 2, 42, payload);
  const Frame frame = decode_frame(bytes);
  EXPECT_EQ(frame.kind, FrameKind::batch);
  EXPECT_EQ(frame.payload.size(), payload.size());
  const Batch batch = decode_batch(frame.payload);
  EXPECT_EQ(batch.records.size(), 3u);
}

TEST(Framing, EmptyBatchIsTheBarrierToken) {
  const auto payload = encode_batch(7, 0, 2, {});
  const Batch batch = decode_batch(payload);
  EXPECT_EQ(batch.round, 7u);
  EXPECT_TRUE(batch.records.empty());
}

TEST(Framing, BatchRejectsBadShape) {
  // shard id out of range
  EXPECT_THROW((void)decode_batch(encode_batch(1, 4, 4, {})), DecodeError);
  // zero shards
  EXPECT_THROW((void)decode_batch(encode_batch(1, 0, 0, {})), DecodeError);
  // unknown record tag
  auto payload = sample_batch_payload();
  // round u64 + three 1-byte varints, then record 0's src/dst varints
  // (1 + 2 bytes — 305 needs two) put the tag at offset 14.
  ASSERT_EQ(static_cast<std::uint8_t>(payload[14]), 0u);
  payload[14] = std::byte{9};
  EXPECT_THROW((void)decode_batch(payload), DecodeError);
  // trailing garbage
  auto trailing = sample_batch_payload();
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)decode_batch(trailing), DecodeError);
}

TEST(Framing, BatchAckRoundtrip) {
  const auto payload = encode_batch_ack(123456789);
  EXPECT_EQ(decode_batch_ack(payload), 123456789u);
  auto trailing = payload;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)decode_batch_ack(trailing), DecodeError);
  EXPECT_THROW((void)decode_batch_ack({}), DecodeError);
}

TEST(Framing, EnvelopeDoesNotValidateGossipPayload) {
  // Garbage gossip payloads pass the envelope — the message codec is
  // responsible for rejecting them.
  const auto bytes = encode_frame(FrameKind::gossip, 1, 1, sample_payload());
  const Frame frame = decode_frame(bytes);
  EXPECT_THROW(
      (void)decode_classification<stats::Gaussian>(frame.payload),
      DecodeError);
}

// ---------------------------------------------------------------------------
// The in-place batch frame writer (the shard engine's send path): an
// envelope, a batch header with the record count, then each record with
// its message appended through one reused record encoder, all in one
// reused frame encoder. It must write exactly the bytes of
// encode_frame(FrameKind::batch, ..., encode_batch(...)).
// ---------------------------------------------------------------------------

/// One message of a test batch: its ids, tag and classification.
template <typename Summary>
struct Outgoing {
  std::uint32_t src;
  std::uint32_t dst;
  BatchTag tag;
  core::Classification<Summary> message;
};

template <typename Summary>
void write_in_place(Encoder& frame, Encoder& record, std::uint64_t round,
                    std::uint32_t shard, std::uint32_t num_shards,
                    const std::vector<Outgoing<Summary>>& out) {
  frame.clear();
  append_frame_header(frame, FrameKind::batch, shard, round + 1);
  append_batch_header(frame, round, shard, num_shards, out.size());
  for (const Outgoing<Summary>& o : out) {
    record.clear();
    append_classification(record, o.message);
    append_batch_record(frame, {o.src, o.dst, o.tag, record.bytes()});
  }
}

template <typename Summary>
std::vector<std::byte> write_with_wrappers(
    std::uint64_t round, std::uint32_t shard, std::uint32_t num_shards,
    const std::vector<Outgoing<Summary>>& out) {
  std::vector<std::vector<std::byte>> payloads;
  std::vector<BatchRecord> records;
  payloads.reserve(out.size());
  for (const Outgoing<Summary>& o : out) {
    payloads.push_back(encode_classification(o.message));
    records.push_back({o.src, o.dst, o.tag, payloads.back()});
  }
  return encode_frame(FrameKind::batch, shard, round + 1,
                      encode_batch(round, shard, num_shards, records));
}

/// Writes `out` both ways, twice through the same encoders (the second
/// time warm, over a longer earlier frame), and reads the frame back.
template <typename Summary>
void expect_in_place_matches(std::uint64_t round, std::uint32_t shard,
                             std::uint32_t num_shards,
                             const std::vector<Outgoing<Summary>>& out) {
  const std::vector<std::byte> expected =
      write_with_wrappers(round, shard, num_shards, out);
  Encoder frame;
  Encoder record;
  for (int pass = 0; pass < 2; ++pass) {
    write_in_place(frame, record, round, shard, num_shards, out);
    ASSERT_EQ(frame.bytes(), expected) << "pass " << pass;
  }
  const Frame envelope = decode_frame(frame.bytes());
  EXPECT_EQ(envelope.kind, FrameKind::batch);
  EXPECT_EQ(envelope.sender, shard);
  EXPECT_EQ(envelope.seq, round + 1);
  const Batch batch = decode_batch(envelope.payload);
  EXPECT_EQ(batch.round, round);
  EXPECT_EQ(batch.shard, shard);
  EXPECT_EQ(batch.num_shards, num_shards);
  ASSERT_EQ(batch.records.size(), out.size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(batch.records[r].src, out[r].src);
    EXPECT_EQ(batch.records[r].dst, out[r].dst);
    EXPECT_EQ(batch.records[r].tag, out[r].tag);
    EXPECT_EQ(encode_classification(
                  decode_classification<Summary>(batch.records[r].payload)),
              encode_classification(out[r].message));
  }
}

core::Classification<linalg::Vector> centroids(
    std::initializer_list<std::pair<double, std::int64_t>> points) {
  core::Classification<linalg::Vector> c;
  for (const auto& [x, quanta] : points) {
    c.add({linalg::Vector{x, -x}, core::Weight::from_quanta(quanta), {}});
  }
  return c;
}

TEST(FrameWriter, EmptyBatchMatchesWrappers) {
  expect_in_place_matches<linalg::Vector>(0, 0, 2, {});
  expect_in_place_matches<linalg::Vector>(1ULL << 40, 127, 128, {});
}

TEST(FrameWriter, VarintBoundaryIdsAndReplyTagsMatchWrappers) {
  const std::vector<Outgoing<linalg::Vector>> out = {
      {127, 128, BatchTag::forward, centroids({{1.5, 3}})},
      {128, 127, BatchTag::reply, centroids({{-2.0, 1}, {7.25, 1 << 20}})},
      {16383, 16384, BatchTag::forward, centroids({{0.0, 5}})},
      {16384, 16383, BatchTag::reply, centroids({{1e-300, 2}, {3.0, 9}})},
      {0, 0xffffffffU, BatchTag::forward, centroids({{42.0, 1}})},
  };
  expect_in_place_matches(16383, 3, 16384, out);
}

TEST(FrameWriter, GaussianPayloadsMatchWrappers) {
  const auto gaussian = [](double mean, double var) {
    return stats::Gaussian(linalg::Vector{mean, -mean},
                           linalg::Matrix{{var, 0.1 * var}, {0.1 * var, var}});
  };
  std::vector<Outgoing<stats::Gaussian>> out(2);
  out[0] = {5, 900, BatchTag::forward, {}};
  out[0].message.add({gaussian(1.0, 2.0), core::Weight::from_quanta(7), {}});
  out[1] = {900, 5, BatchTag::reply, {}};
  out[1].message.add({gaussian(-3.0, 0.5), core::Weight::from_quanta(1), {}});
  out[1].message.add({gaussian(8.0, 0.0), core::Weight::from_quanta(4), {}});
  expect_in_place_matches(9, 1, 3, out);
}

TEST(FrameWriter, DecodeIntoReusedBatchReplacesRecords) {
  const auto longer = encode_batch(3, 0, 2,
                                   std::vector<BatchRecord>{
                                       {1, 2, BatchTag::forward, {}},
                                       {3, 4, BatchTag::reply, {}},
                                   });
  const auto shorter = encode_batch(
      4, 1, 2, std::vector<BatchRecord>{{5, 6, BatchTag::forward, {}}});
  Batch batch;
  decode_batch(longer, batch);
  decode_batch(shorter, batch);
  EXPECT_EQ(batch.round, 4u);
  EXPECT_EQ(batch.shard, 1u);
  ASSERT_EQ(batch.records.size(), 1u);
  EXPECT_EQ(batch.records[0].src, 5u);
  EXPECT_EQ(batch.records[0].dst, 6u);
}

}  // namespace
}  // namespace ddc::wire
