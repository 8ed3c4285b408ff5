// Fuzz harness for the shard exchange's receive side.
//
// Two centroid ShardEngines (a contiguous 2-shard map) run a few lockstep
// rounds over a LoopbackNetwork. Every frame shard 1 sends shard 0 —
// batches, acks and their retransmits — passes through a tap the input
// steers: pass it, drop it, send it twice, stash it for a later replay,
// replay a stashed one, or mutate it. Mutations are structure-aware: the
// batch header (round, shard, cluster size), one record (drop, duplicate,
// new src or dst, flipped or invalid tag, truncated, emptied, swapped,
// bad-magic, byte-flipped or forged-weight payload), the frame kind, one
// header byte, or a truncation. A forged weight can be any quanta; the
// decoder's kMaxMessageQuanta bound keeps what shard 0 absorbs from
// overflowing. Shard 0 → shard 1 traffic is left alone.
//
// The oracle, on shard 0:
//
//   * no exception leaves begin_round / try_complete_round / service,
//     and every round completes (max_exchange_polls > 0);
//   * node quanta change only through a decoded frame, and a replayed
//     frame is absorbed once: the round is loss- and crash-free, so after
//     round R shard 0 holds its quanta from before, minus what its own
//     round-R batch shipped, plus either nothing or exactly the decodable
//     quanta addressed to it in ONE well-formed round-R batch from shard
//     1 — never the sum of two copies;
//   * bad frames are counted: after the final drain, decode_errors is the
//     number of frames the harness's own decode rejects plus, per round,
//     the undecodable payloads addressed to shard 0 in the batch it
//     applied (any batch the round's quanta could have come from); shard
//     1, which gets clean traffic, counts none.
//
// Any violation aborts with a description.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <ddc/net/loopback.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/wire/framing.hpp>
#include <ddc/wire/serialize.hpp>

#include "fuzz_input.hpp"

namespace {

using ddc_fuzz::FuzzInput;
namespace net = ddc::net;
namespace shard = ddc::shard;
namespace sim = ddc::sim;
namespace wire = ddc::wire;

constexpr std::size_t kMaxRounds = 6;
constexpr std::size_t kMaxPollsPerRound = 100000;

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "fuzz_shard_batch: %s\n", what.c_str());
  std::abort();
}

using Bytes = std::vector<std::byte>;

/// A well-formed batch frame from shard 1 as shard 0 would apply it:
/// the decodable quanta addressed to shard 0 and the undecodable
/// payloads it would try.
struct Applicable {
  std::int64_t quanta = 0;
  std::uint64_t bad_payloads = 0;
};

/// What the harness knows of the traffic, from its own decode.
struct Ledger {
  std::size_t nodes = 0;
  const shard::ShardMap* map = nullptr;
  std::uint64_t rejected_frames = 0;
  std::map<std::uint64_t, std::vector<Applicable>> to_shard0;
  std::map<std::uint64_t, std::int64_t> shipped_by_shard0;

  /// Classifies one frame about to reach shard 0.
  void observe_inbound(const Bytes& bytes) {
    wire::Frame frame;
    try {
      frame = wire::decode_frame(bytes);
    } catch (const wire::DecodeError&) {
      ++rejected_frames;
      return;
    }
    if (frame.kind == wire::FrameKind::batch_ack) {
      try {
        (void)wire::decode_batch_ack(frame.payload);
      } catch (const wire::DecodeError&) {
        ++rejected_frames;
      }
      return;
    }
    if (frame.kind != wire::FrameKind::batch) return;  // ignored kinds
    wire::Batch batch;
    try {
      batch = wire::decode_batch(frame.payload);
    } catch (const wire::DecodeError&) {
      ++rejected_frames;
      return;
    }
    if (batch.shard != 1 || batch.num_shards != 2) {
      ++rejected_frames;
      return;
    }
    Applicable a;
    for (const wire::BatchRecord& rec : batch.records) {
      if (rec.dst >= nodes || map->shard_of(rec.dst) != 0) continue;
      try {
        a.quanta += shard::CentroidCodec::decode(rec.payload)
                        .total_weight()
                        .quanta();
      } catch (const wire::DecodeError&) {
        ++a.bad_payloads;
      }
    }
    to_shard0[batch.round].push_back(a);
  }

  /// Records shard 0's own batch (the first copy of each round).
  void observe_outbound(const Bytes& bytes) {
    const wire::Frame frame = wire::decode_frame(bytes);
    if (frame.kind != wire::FrameKind::batch) return;
    const wire::Batch batch = wire::decode_batch(frame.payload);
    if (shipped_by_shard0.count(batch.round) != 0) return;
    std::int64_t quanta = 0;
    for (const wire::BatchRecord& rec : batch.records) {
      quanta +=
          shard::CentroidCodec::decode(rec.payload).total_weight().quanta();
    }
    shipped_by_shard0[batch.round] = quanta;
  }
};

/// A transport that forwards to a loopback endpoint; subclasses look at
/// or rewrite what is sent.
class Relay : public net::Transport {
 public:
  explicit Relay(net::Transport& inner) : inner_(inner) {}
  [[nodiscard]] net::PeerId self() const override { return inner_.self(); }
  [[nodiscard]] std::size_t num_peers() const override {
    return inner_.num_peers();
  }
  [[nodiscard]] std::vector<net::Packet> receive() override {
    return inner_.receive();
  }
  [[nodiscard]] const net::LinkStats& stats(net::PeerId peer) const override {
    return inner_.stats(peer);
  }

 protected:
  net::Transport& inner_;
};

/// Shard 0's endpoint: sends pass untouched, and its batches are noted.
class Watch final : public Relay {
 public:
  Watch(net::Transport& inner, Ledger& ledger)
      : Relay(inner), ledger_(ledger) {}
  void send(net::PeerId to, const Bytes& frame) override {
    ledger_.observe_outbound(frame);
    inner_.send(to, frame);
  }

 private:
  Ledger& ledger_;
};

/// Shard 1's endpoint: every frame to shard 0 goes through the input.
class Tap final : public Relay {
 public:
  Tap(net::Transport& inner, FuzzInput& in, Ledger& ledger)
      : Relay(inner), in_(in), ledger_(ledger) {}

  void send(net::PeerId to, const Bytes& frame) override {
    if (to != 0 || in_.exhausted()) {
      forward(to, frame);
      return;
    }
    switch (in_.index(8)) {
      case 0:
        forward(to, frame);
        return;
      case 1:  // dropped
        return;
      case 2:  // sent twice
        forward(to, frame);
        forward(to, frame);
        return;
      case 3:  // kept for a later replay
        stash_.push_back(frame);
        forward(to, frame);
        return;
      case 4:  // an earlier frame replayed first
        if (!stash_.empty()) forward(to, stash_[in_.index(stash_.size())]);
        forward(to, frame);
        return;
      case 5:
        forward(to, mutate_batch(frame));
        return;
      case 6:
        forward(to, mutate_envelope(frame));
        return;
      default: {  // truncated
        const Bytes cut(frame.begin(),
                        frame.begin() + static_cast<std::ptrdiff_t>(
                                            in_.index(frame.size() + 1)));
        forward(to, cut);
        return;
      }
    }
  }

 private:
  void forward(net::PeerId to, const Bytes& frame) {
    if (to == 0) ledger_.observe_inbound(frame);
    inner_.send(to, frame);
  }

  /// Rewrites one field of a decodable batch frame and re-encodes it.
  Bytes mutate_batch(const Bytes& bytes) {
    wire::Frame frame;
    wire::Batch batch;
    try {
      frame = wire::decode_frame(bytes);
      if (frame.kind != wire::FrameKind::batch) return bytes;
      batch = wire::decode_batch(frame.payload);
    } catch (const wire::DecodeError&) {
      return bytes;
    }
    std::vector<wire::BatchRecord>& records = batch.records;
    static const Bytes kBadMagic = {std::byte{0xff}, std::byte{0x00}};
    switch (in_.index(9)) {
      case 0:
        batch.round += static_cast<std::uint64_t>(in_.index(5)) - 2;
        break;
      case 1:
        batch.shard = static_cast<std::uint32_t>(in_.index(3));
        break;
      case 2:
        batch.num_shards = static_cast<std::uint32_t>(in_.index(4));
        break;
      case 3:
        if (!records.empty()) {
          records.erase(records.begin() +
                        static_cast<std::ptrdiff_t>(in_.index(records.size())));
        }
        break;
      case 4:
        if (!records.empty()) {
          const wire::BatchRecord copy = records[in_.index(records.size())];
          records.push_back(copy);
        }
        break;
      case 5:
      case 6:
        if (!records.empty()) {
          wire::BatchRecord& rec = records[in_.index(records.size())];
          std::uint32_t& id = in_.index(2) == 0 ? rec.src : rec.dst;
          id = static_cast<std::uint32_t>(in_.index(ledger_.nodes + 2));
        }
        break;
      case 7:
        if (!records.empty()) {
          wire::BatchRecord& rec = records[in_.index(records.size())];
          rec.tag = static_cast<wire::BatchTag>(in_.index(3));
        }
        break;
      default:
        if (!records.empty()) {
          wire::BatchRecord& rec = records[in_.index(records.size())];
          switch (in_.index(6)) {
            case 0:
              rec.payload =
                  rec.payload.first(in_.index(rec.payload.size() + 1));
              break;
            case 1:
              rec.payload = {};
              break;
            case 2:
              rec.payload = records[in_.index(records.size())].payload;
              break;
            case 3:
              rec.payload = kBadMagic;
              break;
            case 4:
              if (!rec.payload.empty()) {
                // The span borrows the frame: flip a copy.
                forged_ = Bytes(rec.payload.begin(), rec.payload.end());
                forged_[in_.index(forged_.size())] ^=
                    static_cast<std::byte>(1 + in_.index(255));
                rec.payload = forged_;
              }
              break;
            default:
              // Forges the first collection's weight: the LE i64 after
              // magic (4), type (1) and a one-byte count.
              if (rec.payload.size() >= 14 &&
                  std::to_integer<unsigned>(rec.payload[5]) < 0x80) {
                const std::int64_t choices[] = {
                    wire::kMaxMessageQuanta, wire::kMaxMessageQuanta + 1,
                    std::numeric_limits<std::int64_t>::max(),
                    static_cast<std::int64_t>(in_.u64() >> 1)};
                auto quanta =
                    static_cast<std::uint64_t>(choices[in_.index(4)]);
                forged_ = Bytes(rec.payload.begin(), rec.payload.end());
                for (std::size_t i = 0; i < 8; ++i, quanta >>= 8) {
                  forged_[6 + i] = static_cast<std::byte>(quanta & 0xff);
                }
                rec.payload = forged_;
              }
              break;
          }
        }
        break;
    }
    return wire::encode_frame(
        frame.kind, frame.sender, frame.seq,
        wire::encode_batch(batch.round, batch.shard, batch.num_shards,
                           records));
  }

  /// Changes the frame kind, or one byte of the envelope and the batch
  /// header behind it.
  Bytes mutate_envelope(const Bytes& bytes) {
    Bytes out = bytes;
    if (out.empty()) return out;
    if (in_.index(2) == 0 && out.size() > 4) {
      out[4] = static_cast<std::byte>(1 + in_.index(6));  // kind byte
    } else {
      const std::size_t at = in_.index(std::min<std::size_t>(out.size(), 28));
      out[at] ^= static_cast<std::byte>(1 + in_.index(255));
    }
    return out;
  }

  FuzzInput& in_;
  Ledger& ledger_;
  std::vector<Bytes> stash_;
  Bytes forged_;  // mutate_batch's altered payload, alive until encoded
};

/// The undecodable payloads shard 0 met in one round, over the batches
/// its quanta gain could have come from.
struct Range {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Which of the round's well-formed batches from shard 1 could shard 0
/// have applied, given that its quanta rose by `gained` (none, if 0)?
/// Fails when none could.
Range explain(std::size_t round, std::int64_t gained,
              const std::vector<Applicable>& frames) {
  bool explained = gained == 0;
  Range bad{explained ? 0 : UINT64_MAX, 0};
  for (const Applicable& a : frames) {
    if (a.quanta != gained) continue;
    explained = true;
    bad.lo = std::min(bad.lo, a.bad_payloads);
    bad.hi = std::max(bad.hi, a.bad_payloads);
  }
  if (!explained) {
    fail("round " + std::to_string(round) + ": shard 0 gained " +
         std::to_string(gained) +
         " quanta, which no single well-formed batch carries");
  }
  return bad;
}

std::int64_t quanta_of(const shard::CentroidShardEngine& engine) {
  std::int64_t total = 0;
  for (const auto& node : engine.nodes()) {
    total += node.classification().total_weight().quanta();
  }
  return total;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzInput in(data, size);
  constexpr sim::GossipPattern kPatterns[] = {sim::GossipPattern::push,
                                              sim::GossipPattern::pull,
                                              sim::GossipPattern::push_pull};
  sim::EngineConfig config;
  config.pattern = kPatterns[in.index(3)];
  config.selection = in.index(2) == 0 ? sim::NeighborSelection::uniform_random
                                      : sim::NeighborSelection::round_robin;
  config.k = 1 + in.index(2);
  config.seed = 1 + in.index(4);
  const std::size_t nodes = 6 + in.index(7);
  const std::size_t rounds = 1 + in.index(kMaxRounds);
  const sim::Topology topology = in.index(2) == 0
                                     ? sim::Topology::complete(nodes)
                                     : sim::Topology::ring(nodes);
  std::vector<ddc::linalg::Vector> inputs;
  for (std::size_t i = 0; i < nodes; ++i) {
    inputs.push_back(ddc::linalg::Vector{static_cast<double>(i % 3) * 10.0,
                                         static_cast<double>(i)});
  }

  net::LoopbackNetwork fabric(2);
  shard::ShardEngineOptions exchange;
  exchange.resend_interval_polls = 4;
  exchange.max_exchange_polls = 16;
  const shard::ShardMap map(nodes, 2);
  Ledger ledger;
  ledger.nodes = nodes;
  ledger.map = &map;
  Watch watch(fabric.endpoint(0), ledger);
  Tap tap(fabric.endpoint(1), in, ledger);
  auto e0 = shard::make_centroid_shard_engine(topology, inputs, config, 0, 2,
                                              &watch, exchange);
  auto e1 = shard::make_centroid_shard_engine(topology, inputs, config, 1, 2,
                                              &tap, exchange);
  if (e0.map().owned(0).size() != map.owned(0).size()) {
    fail("the harness's map differs from the engine's");
  }

  Range bad_payloads;
  try {
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::int64_t before = quanta_of(e0);
      e0.begin_round();
      e1.begin_round();
      bool done0 = false;
      bool done1 = false;
      for (std::size_t poll = 0; !(done0 && done1); ++poll) {
        if (poll == kMaxPollsPerRound) {
          fail("round " + std::to_string(r) + " did not complete");
        }
        fabric.advance();
        if (done0) {
          e0.service();
        } else {
          done0 = e0.try_complete_round();
          if (done0) {
            // Shard 0's quanta settle when its round completes.
            const std::int64_t gained =
                quanta_of(e0) - before + ledger.shipped_by_shard0.at(r);
            const Range bad = explain(r, gained, ledger.to_shard0[r]);
            bad_payloads.lo += bad.lo;
            bad_payloads.hi += bad.hi;
          }
        }
        if (done1) {
          e1.service();
        } else {
          done1 = e1.try_complete_round();
        }
      }
    }
    // Drain: every frame in flight reaches its engine.
    for (int i = 0; i < 8 || fabric.frames_in_flight() > 0; ++i) {
      fabric.advance();
      e0.service();
      e1.service();
    }
  } catch (const std::exception& e) {
    fail(std::string("exception escaped the engine: ") + e.what());
  }

  const std::uint64_t counted = e0.stats().decode_errors;
  if (counted < ledger.rejected_frames + bad_payloads.lo ||
      counted > ledger.rejected_frames + bad_payloads.hi) {
    fail("shard 0 counted " + std::to_string(counted) +
         " decode errors; the harness rejected " +
         std::to_string(ledger.rejected_frames) + " frames, and the applied "
         "batches held " + std::to_string(bad_payloads.lo) + ".." +
         std::to_string(bad_payloads.hi) + " bad payloads");
  }
  if (e1.stats().decode_errors != 0) {
    fail("shard 1 counted decode errors on clean traffic");
  }
  return 0;
}
