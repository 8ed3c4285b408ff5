// Transport-level frame envelope.
//
// The message codecs in serialize.hpp describe protocol *payloads*
// (classifications, push-sum state). Once payloads travel between
// processes they need an outer envelope that identifies the sender,
// orders frames, and distinguishes data from transport housekeeping
// (liveness probes). This module defines that envelope; src/net wraps
// every datagram in it.
//
// Envelope layout:
//   magic    u32   'D','D','N',version (=1)
//   kind     u8    FrameKind
//   sender   u32   peer id of the originating endpoint
//   seq      u64   per-sender monotonic sequence number
//   payload  ...   rest of the buffer (empty for probe/probe_ack)
//
// Decoding is bounds-checked and throws DecodeError on bad magic,
// unsupported version, or unknown kind — a node must survive any
// datagram the network hands it.
//
// Every layout here has an appender that writes it into a caller's
// Encoder, so a sender can build a whole batch frame in one reused
// buffer: append_frame_header, append_batch_header (with the record
// count), then append_batch_record per record. encode_frame,
// encode_batch and encode_batch_ack are byte-for-byte wrappers over
// them for callers that want a fresh buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include <ddc/wire/codec.hpp>

namespace ddc::wire {

/// What a transport frame carries.
enum class FrameKind : std::uint8_t {
  /// The payload is a protocol message (classification, push-sum, ...).
  gossip = 1,
  /// Liveness probe; the receiver answers with probe_ack. Empty payload.
  probe = 2,
  /// Answer to a probe. Empty payload.
  probe_ack = 3,
  /// A shard-to-shard batch: one round's cross-shard messages between a
  /// peer pair, packed into a single frame (see encode_batch).
  batch = 4,
  /// Acknowledges a batch frame. Payload is the acked round (u64).
  batch_ack = 5,
};

/// A decoded envelope. `payload` borrows from the buffer handed to
/// decode_frame and is valid only as long as that buffer lives.
struct Frame {
  FrameKind kind;
  std::uint32_t sender;
  std::uint64_t seq;
  std::span<const std::byte> payload;
};

/// Appends an envelope header; the payload is whatever follows it.
void append_frame_header(Encoder& enc, FrameKind kind, std::uint32_t sender,
                         std::uint64_t seq);

/// Wraps `payload` in an envelope from `sender` with sequence `seq`.
[[nodiscard]] std::vector<std::byte> encode_frame(
    FrameKind kind, std::uint32_t sender, std::uint64_t seq,
    std::span<const std::byte> payload = {});

/// Parses an envelope; throws DecodeError on malformed input. The
/// payload is NOT validated here — gossip payloads are decoded by the
/// message codecs, which do their own checking.
[[nodiscard]] Frame decode_frame(std::span<const std::byte> bytes);

/// Whether one logical message inside a batch travels initiator→target
/// (forward) or target→initiator (the pull/push_pull answer).
enum class BatchTag : std::uint8_t {
  forward = 0,
  reply = 1,
};

/// One logical cross-shard message inside a batch payload. `payload`
/// borrows from whatever buffer the record was decoded from (or, when
/// encoding, from the caller's message bytes).
struct BatchRecord {
  std::uint32_t src;  ///< global node id of the sending node
  std::uint32_t dst;  ///< global node id of the receiving node
  BatchTag tag;
  std::span<const std::byte> payload;
};

/// A decoded batch payload. Record payloads borrow from the buffer
/// handed to decode_batch and are valid only as long as it lives.
struct Batch {
  std::uint64_t round;       ///< gossip round the records belong to
  std::uint32_t shard;       ///< originating shard id
  std::uint32_t num_shards;  ///< cluster size, for cross-checking
  std::vector<BatchRecord> records;
};

/// Batch payload layout (goes inside a FrameKind::batch envelope):
///   round       u64
///   shard       varint   originating shard id
///   num_shards  varint   cluster size (receiver sanity-checks)
///   count       varint   number of records
///   records     count × { src varint, dst varint, tag u8,
///                          len varint, payload len bytes }
[[nodiscard]] std::vector<std::byte> encode_batch(
    std::uint64_t round, std::uint32_t shard, std::uint32_t num_shards,
    std::span<const BatchRecord> records);

/// Appends a batch payload's header, up to and including the record
/// count; exactly `count` append_batch_record calls must follow.
void append_batch_header(Encoder& enc, std::uint64_t round,
                         std::uint32_t shard, std::uint32_t num_shards,
                         std::size_t count);
/// Appends one batch record.
void append_batch_record(Encoder& enc, const BatchRecord& record);

/// Parses a batch payload; throws DecodeError on malformed input
/// (including trailing bytes). Record payloads are NOT validated here.
[[nodiscard]] Batch decode_batch(std::span<const std::byte> payload);
/// The same, into `out`, whose record array keeps its capacity. On a
/// throw `out` holds a partial batch.
void decode_batch(std::span<const std::byte> payload, Batch& out);

/// Payload for a FrameKind::batch_ack envelope: the acked round.
[[nodiscard]] std::vector<std::byte> encode_batch_ack(std::uint64_t round);
/// Appends a batch_ack payload.
void append_batch_ack(Encoder& enc, std::uint64_t round);

/// Parses a batch_ack payload; throws DecodeError on malformed input.
[[nodiscard]] std::uint64_t decode_batch_ack(
    std::span<const std::byte> payload);

}  // namespace ddc::wire
