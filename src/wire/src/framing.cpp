#include <ddc/wire/framing.hpp>

#include <utility>

namespace ddc::wire {

namespace {

constexpr std::uint32_t kFrameMagicBase = 0x004e4444;  // "DDN\0" little-endian
constexpr std::uint32_t kFrameVersion = 1;
constexpr std::uint32_t kFrameMagic = kFrameMagicBase | (kFrameVersion << 24);

std::uint32_t narrow_u32(std::uint64_t v, const char* what) {
  if (v > 0xffffffffULL) {
    throw DecodeError(std::string(what) + " exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

void append_frame_header(Encoder& enc, FrameKind kind, std::uint32_t sender,
                         std::uint64_t seq) {
  enc.put_u32(kFrameMagic);
  enc.put_u8(static_cast<std::uint8_t>(kind));
  enc.put_u32(sender);
  enc.put_u64(seq);
}

std::vector<std::byte> encode_frame(FrameKind kind, std::uint32_t sender,
                                    std::uint64_t seq,
                                    std::span<const std::byte> payload) {
  Encoder enc;
  append_frame_header(enc, kind, sender, seq);
  enc.put_bytes(payload);
  return std::move(enc).take();
}

Frame decode_frame(std::span<const std::byte> bytes) {
  Decoder dec(bytes);
  const std::uint32_t magic = dec.get_u32();
  if ((magic & 0x00ffffff) != kFrameMagicBase) {
    throw DecodeError("wire: bad frame magic");
  }
  if ((magic >> 24) != kFrameVersion) {
    throw DecodeError("wire: unsupported frame version " +
                      std::to_string(magic >> 24));
  }
  const std::uint8_t kind = dec.get_u8();
  if (kind < 1 || kind > 5) {
    throw DecodeError("wire: unknown frame kind " + std::to_string(kind));
  }
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.sender = dec.get_u32();
  frame.seq = dec.get_u64();
  frame.payload = bytes.subspan(bytes.size() - dec.remaining());
  if ((frame.kind == FrameKind::probe || frame.kind == FrameKind::probe_ack) &&
      !frame.payload.empty()) {
    throw DecodeError("wire: probe frame with payload");
  }
  return frame;
}

void append_batch_header(Encoder& enc, std::uint64_t round,
                         std::uint32_t shard, std::uint32_t num_shards,
                         std::size_t count) {
  enc.put_u64(round);
  enc.put_varint(shard);
  enc.put_varint(num_shards);
  enc.put_varint(count);
}

void append_batch_record(Encoder& enc, const BatchRecord& record) {
  enc.put_varint(record.src);
  enc.put_varint(record.dst);
  enc.put_u8(static_cast<std::uint8_t>(record.tag));
  enc.put_varint(record.payload.size());
  enc.put_bytes(record.payload);
}

std::vector<std::byte> encode_batch(std::uint64_t round, std::uint32_t shard,
                                    std::uint32_t num_shards,
                                    std::span<const BatchRecord> records) {
  Encoder enc;
  append_batch_header(enc, round, shard, num_shards, records.size());
  for (const BatchRecord& rec : records) append_batch_record(enc, rec);
  return std::move(enc).take();
}

Batch decode_batch(std::span<const std::byte> payload) {
  Batch batch;
  decode_batch(payload, batch);
  return batch;
}

void decode_batch(std::span<const std::byte> payload, Batch& batch) {
  Decoder dec(payload);
  batch.records.clear();
  batch.round = dec.get_u64();
  batch.shard = narrow_u32(dec.get_varint(), "wire: batch shard id");
  batch.num_shards = narrow_u32(dec.get_varint(), "wire: batch num_shards");
  if (batch.num_shards == 0 || batch.shard >= batch.num_shards) {
    throw DecodeError("wire: batch shard id out of range");
  }
  const std::uint64_t count = dec.get_varint();
  // Smallest possible record: three 1-byte varints + tag = 4 bytes.
  dec.check_count(count, 4);
  batch.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    BatchRecord rec;
    rec.src = narrow_u32(dec.get_varint(), "wire: batch record src");
    rec.dst = narrow_u32(dec.get_varint(), "wire: batch record dst");
    const std::uint8_t tag = dec.get_u8();
    if (tag > 1) {
      throw DecodeError("wire: unknown batch record tag " +
                        std::to_string(tag));
    }
    rec.tag = static_cast<BatchTag>(tag);
    const std::uint64_t len = dec.get_varint();
    if (len > dec.remaining()) {
      throw DecodeError("wire: batch record payload overruns frame");
    }
    rec.payload = dec.get_bytes(static_cast<std::size_t>(len));
    batch.records.push_back(rec);
  }
  dec.expect_done();
}

void append_batch_ack(Encoder& enc, std::uint64_t round) {
  enc.put_u64(round);
}

std::vector<std::byte> encode_batch_ack(std::uint64_t round) {
  Encoder enc;
  append_batch_ack(enc, round);
  return std::move(enc).take();
}

std::uint64_t decode_batch_ack(std::span<const std::byte> payload) {
  Decoder dec(payload);
  const std::uint64_t round = dec.get_u64();
  dec.expect_done();
  return round;
}

}  // namespace ddc::wire
