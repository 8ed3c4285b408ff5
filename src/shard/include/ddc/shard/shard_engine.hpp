// Sharded cluster engine: thousands of nodes per process, batched
// cross-shard gossip over Transport.
//
// A ShardEngine is one process's slice of a round-based simulation. The
// global Topology is split by a ShardMap (contiguous ranges or the
// edge-cut-aware BFS partitioner — see shard_map.hpp); this engine owns
// the node objects of ONE shard, runs the shared sim::RoundPlan schedule
// (round_plan.hpp) for them, and exchanges the messages that cross a
// shard boundary through a net::Transport — all of one round's
// cross-shard messages to a given peer packed into a single
// wire::FrameKind::batch frame (encode_batch), acknowledged and
// retransmitted until delivered, with one batch per peer per round
// acting as the round barrier (an empty batch is the barrier token).
//
// Compute/communication overlap: begin_round() splits the owned nodes
// into BOUNDARY (this round's plan moves one of their messages across a
// shard edge) and INTERIOR sets, prepares the boundary first, flushes
// the batch frames immediately, then prepares the interior in chunks
// with transport polls in between — peers' frames are on the wire (and
// being serviced) while the bulk of prepare still runs, instead of the
// exchange starting only after all compute. Per-node prepare draws are
// node-local (the same reason prepare may run under parallel_for), so
// the boundary-first order cannot perturb any stream.
//
// Determinism: a 1-shard run, an S-shard loopback run and an S-process
// UDP run of the same EngineConfig produce bit-identical node states.
// The argument (DESIGN.md "Sharded cluster engine"):
//
//  * Every environment draw (neighbor selection, crash bernoullis) is
//    replayed IDENTICALLY on every shard: each engine carries a full
//    global RoundPlan — alive vector, selector state, reply requests —
//    and walks all n nodes in the plan/crash phases, consuming exactly
//    RoundRunner's draws. The alive vector evolves as a pure function of
//    the seed, so replicas never diverge.
//  * Node-local randomness derives from the protocol seed by GLOBAL
//    node id (gossip::make_*_nodes discipline), so a node's stream does
//    not depend on which shard hosts it.
//  * Channel loss is RoundPlan's stateless verdict, hashed from (seed,
//    round, leg, initiator): the sending shard and the receiving shard
//    reach the same verdict without exchanging it, and so does
//    RoundRunner. Lossy runs, like lossless ones, match RoundRunner bit
//    for bit.
//
// The engine is stepped — begin_round() sends, try_complete_round()
// polls — so a single thread can drive S in-process engines (see
// ShardCluster); run_round() wraps the two for one-engine-per-process
// drivers like ddcnode. All exchange pacing is poll-counted, never
// wall-clock, to keep the deterministic core clock-free.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/net/transport.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/wire/framing.hpp>

namespace ddc::shard {

/// Configuration of a shard engine: the simulation fields are
/// RoundRunnerOptions' (parallelism applies to the owned nodes' prepare
/// and absorb); the exchange fields pace the batch protocol in transport
/// polls (poll = one try_complete_round() that did not finish the round).
struct ShardEngineOptions : sim::RoundRunnerOptions {
  /// Unacked batches are retransmitted every this many polls.
  std::size_t resend_interval_polls = 64;
  /// After this many polls without a peer's batch or ack, the whole peer
  /// shard is declared dead and the round proceeds without it. 0 waits
  /// forever (in-process clusters, where a missing frame is a bug).
  std::size_t max_exchange_polls = 0;
  /// Node→shard assignment strategy; consumed by the factories and
  /// ShardCluster when they build the ShardMap (the engine itself takes
  /// whatever map it is handed).
  Partitioner partitioner = Partitioner::contiguous;
  /// Interior nodes prepared between two transport polls during the
  /// overlap schedule. 0 disables mid-compute polling (one block).
  std::size_t overlap_chunk = 512;
  /// Called by run_round() between unsuccessful polls — the driver's
  /// pump (LoopbackNetwork::advance, UdpTransport::maintain + sleep).
  std::function<void()> idle;
  /// TESTING ONLY — re-enables a historic bug class for the schedule
  /// explorer's planted-bug self-test: when set, empty batches (bare
  /// barrier tokens) are never retransmitted, so a dropped barrier
  /// deadlocks the round. Production code must leave this false.
  bool testing_suppress_empty_barrier_retransmit = false;
};

/// Counters of the batch exchange, for soak assertions and benchmarks.
struct ShardEngineStats {
  std::uint64_t batch_frames_sent = 0;
  std::uint64_t batch_records_sent = 0;
  std::uint64_t batch_frames_received = 0;
  std::uint64_t batch_records_received = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t peer_timeouts = 0;
  /// Records that did not match the local replay of the global plan
  /// (only possible after a peer restarted from scratch).
  std::uint64_t unplanned_records = 0;
  /// Directed owned→remote edges of this shard's map slice (constant
  /// per run; the traffic ceiling the partitioner bought).
  std::uint64_t cut_edges = 0;
  /// Owned nodes classified boundary, summed over rounds.
  std::uint64_t boundary_nodes = 0;
  /// Transport polls serviced inside the prepare phase (overlap wins).
  std::uint64_t polls_during_compute = 0;
};

/// One process's shard of a round-based gossip simulation. `Codec`
/// encodes Node::Message payloads for the wire (net/codec.hpp shapes).
template <sim::GossipNode Node, typename Codec>
class ShardEngine {
 public:
  using Message = typename Node::Message;

  /// Takes ownership of shard `shard_id`'s node objects (`owned_nodes`
  /// must hold map.size(shard_id) nodes in map.owned(shard_id) order —
  /// ascending global id). `transport` is borrowed, must outlive the
  /// engine, and may be null only for a 1-shard map; its peer ids are
  /// shard ids.
  ShardEngine(sim::Topology topology, ShardMap map, ShardId shard_id,
              std::vector<Node> owned_nodes, net::Transport* transport,
              ShardEngineOptions options = {})
      : topology_(std::move(topology)),
        map_(map),
        shard_(shard_id),
        nodes_(std::move(owned_nodes)),
        options_(std::move(options)),
        transport_(transport),
        plan_(options_, map_.num_nodes()),
        replies_(map_.num_nodes()),
        outbox_(nodes_.size()),
        inbox_(nodes_.size()),
        peers_(map_.num_shards()),
        pool_(exec::ThreadPool::for_parallelism(options_.parallelism)) {
    DDC_EXPECTS(shard_ < map_.num_shards());
    DDC_EXPECTS(topology_.num_nodes() == map_.num_nodes());
    DDC_EXPECTS(nodes_.size() == map_.size(shard_));
    DDC_EXPECTS(map_.num_shards() == 1 ||
                (transport_ != nullptr &&
                 transport_->num_peers() == map_.num_shards() &&
                 transport_->self() == shard_));
    stats_.cut_edges = map_.cut_edges(topology_, shard_);
  }

  /// Plans the round (global replay), prepares the owned boundary nodes,
  /// ships this round's batch to every peer, then prepares the interior
  /// with transport polls interleaved. Follow with try_complete_round().
  // ddcverify: hotpath
  void begin_round() {
    DDC_EXPECTS(!round_open_);
    plan_.plan(topology_);
    classify_boundary();
    const std::size_t n = map_.num_nodes();
    for (sim::NodeId i = 0; i < n; ++i) replies_[i].reset();
    for (std::size_t j = 0; j < nodes_.size(); ++j) outbox_[j].reset();
    prepare_nodes(boundary_js_);
    send_batches();  // only reads boundary nodes' outbox_/replies_ slots
    const bool overlap = map_.num_shards() > 1 && options_.overlap_chunk > 0;
    const std::size_t chunk =
        overlap ? options_.overlap_chunk : interior_js_.size();
    const std::span<const std::size_t> interior(interior_js_);
    for (std::size_t off = 0; off < interior.size(); off += chunk) {
      const std::size_t len = std::min(chunk, interior.size() - off);
      prepare_nodes(interior.subspan(off, len));
      if (overlap && off + len < interior.size()) {
        pump_transport();
        ++stats_.polls_during_compute;
      }
    }
    polls_this_round_ = 0;
    round_open_ = true;
  }

  /// Polls the transport once; when every peer's round batch has arrived
  /// (or the peer timed out / moved ahead) and every own batch is acked,
  /// finishes the round (deliver, absorb, crash draws) and returns true.
  // ddcverify: hotpath
  [[nodiscard]] bool try_complete_round() {
    DDC_EXPECTS(round_open_);
    if (map_.num_shards() > 1) {
      pump_transport();
      if (!barrier_reached()) {
        ++polls_this_round_;
        maybe_retransmit();
        maybe_expire_peers();
        if (!barrier_reached()) return false;
      }
    }
    deliver_messages();
    absorb_inboxes();
    // Retire this round's exchange state BEFORE advancing the round
    // counter, so batches for the next round arriving early (via
    // service() between rounds, or the next round's polls) land in a
    // clean slot instead of being mistaken for stale state.
    for (PeerState& peer : peers_) {
      peer.records.clear();
      peer.got_batch = false;
      peer.acked = false;
    }
    plan_.end_round();
    round_open_ = false;
    return true;
  }

  /// Services the exchange without advancing the round: drains the
  /// transport, re-acks retransmitted batches and buffers early ones.
  /// Call between rounds (and after the last round, so slower peers
  /// blocked on this shard's acks can finish — see ShardCluster).
  void service() {
    if (map_.num_shards() > 1) pump_transport();
  }

  /// Blocking round: begin + poll (calling options.idle between polls)
  /// until the barrier resolves. With max_exchange_polls > 0 this always
  /// terminates — silent peers get declared dead.
  void run_round() {
    begin_round();
    while (!try_complete_round()) {
      if (options_.idle) options_.idle();
    }
  }

  void run_rounds(std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) run_round();
  }

  [[nodiscard]] std::size_t round() const noexcept { return plan_.round(); }
  [[nodiscard]] ShardId shard_id() const noexcept { return shard_; }
  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }
  [[nodiscard]] const sim::Topology& topology() const noexcept {
    return topology_;
  }
  /// The owned node objects, local index = map().local_index(global id).
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }
  [[nodiscard]] const ShardEngineStats& stats() const noexcept {
    return stats_;
  }

  [[nodiscard]] bool alive(sim::NodeId i) const { return plan_.alive(i); }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return plan_.alive_count();
  }
  /// False once `s` timed out of the barrier (cleared if it resurfaces).
  [[nodiscard]] bool peer_shard_alive(ShardId s) const {
    DDC_EXPECTS(s < peers_.size());
    return !peers_[s].dead;
  }

 private:
  /// One logical message captured off the wire, owning its payload.
  struct StoredRecord {
    sim::NodeId src = 0;
    sim::NodeId dst = 0;
    wire::BatchTag tag = wire::BatchTag::forward;
    std::vector<std::byte> payload;
    bool consumed = false;
  };

  /// Exchange state for one peer shard.
  struct PeerState {
    std::vector<std::byte> sent_frame;  // this round's batch, for resend
    bool sent_records = false;  // false = bare barrier token
    bool acked = false;
    bool got_batch = false;
    std::vector<StoredRecord> records;
    /// One-round-ahead buffer: a lockstep peer can be at most one round
    /// ahead of us, and its next batch may arrive while we still wait
    /// for a slower peer.
    std::optional<std::uint64_t> future_round;
    std::vector<StoredRecord> future_records;
    std::size_t silent_polls = 0;
    bool dead = false;
  };

  [[nodiscard]] bool owns(sim::NodeId i) const {
    return map_.shard_of(i) == shard_;
  }
  [[nodiscard]] std::size_t local(sim::NodeId i) const {
    return map_.local_index(i);
  }

  /// The local message of a hop whose sender this shard owns: a
  /// forward sits in the sender's outbox slot, a reply in the slot of
  /// the initiator it answers.
  [[nodiscard]] std::optional<Message>& message(const sim::Hop& hop) {
    return hop.leg == sim::Leg::forward ? outbox_[local(hop.initiator)]
                                        : replies_[hop.initiator];
  }
  [[nodiscard]] bool sent_locally(const sim::Hop& hop) {
    const std::optional<Message>& msg = message(hop);
    return msg && !msg->empty();
  }

  /// Splits the owned nodes into boundary (this round's plan moves one
  /// of their messages across a shard edge: an outbound forward, or a
  /// reply owed to a remote initiator) and interior. Boundary nodes are
  /// prepared first so the batch frames can leave before interior
  /// compute starts.
  void classify_boundary() {
    boundary_js_.clear();
    interior_js_.clear();
    const bool multi = map_.num_shards() > 1;
    const std::span<const sim::NodeId> owned = map_.owned(shard_);
    for (std::size_t j = 0; j < owned.size(); ++j) {
      const sim::NodeId g = owned[j];
      const sim::NodeId target = plan_.target(g);
      bool boundary = false;
      if (multi) {
        if (plan_.sends() && target != sim::kNoTarget && !owns(target)) {
          boundary = true;
        }
        if (!boundary) {
          for (const sim::NodeId r : plan_.requests(g)) {
            if (!owns(r)) {
              boundary = true;
              break;
            }
          }
        }
      }
      (boundary ? boundary_js_ : interior_js_).push_back(j);
    }
    stats_.boundary_nodes += boundary_js_.size();
  }

  /// Phase 2 — the plan's per-node split order, restricted to the given
  /// owned local indices. The plan is global, so an owned responder
  /// interleaves its own send between lower- and higher-indexed
  /// initiators exactly as the monolithic engine would, remote
  /// initiators included. Per-node draws are node-local, so any split of
  /// the owned set into prepare_nodes calls is bit-identical.
  void prepare_nodes(std::span<const std::size_t> js) {
    const std::span<const sim::NodeId> owned = map_.owned(shard_);
    exec::parallel_for(pool_.get(), js.size(), [&](std::size_t idx) {
      const std::size_t j = js[idx];
      plan_.for_each_split(owned[j], [&](const sim::Hop& hop) {
        message(hop) = nodes_[j].prepare_message();
      });
    });
  }

  /// Packs this round's outbound cross-shard messages into one batch per
  /// peer and ships every batch (empty ones included — the barrier
  /// token). Loss and dead-target verdicts are applied HERE, sender-side
  /// — they are global functions, so the receiver would agree.
  void send_batches() {
    if (map_.num_shards() == 1) return;
    // Reused member scratch (hot-path-alloc): the outer vectors keep
    // their capacity across rounds; `encoded` keeps payloads alive
    // until the per-peer frames are built below.
    std::vector<std::vector<std::byte>>& encoded = encode_scratch_;
    encoded.clear();
    outgoing_scratch_.resize(map_.num_shards());
    std::vector<std::vector<wire::BatchRecord>>& outgoing = outgoing_scratch_;
    for (std::vector<wire::BatchRecord>& records : outgoing) records.clear();
    plan_.for_each_hop(
        [&](const sim::Hop& hop) {
          return owns(hop.from) && !owns(hop.to) && sent_locally(hop);
        },
        [&](const sim::Hop& hop, sim::Fate fate) {
          if (fate != sim::Fate::delivered) return;
          encoded.push_back(Codec::encode(*message(hop)));
          outgoing[map_.shard_of(hop.to)].push_back(
              {static_cast<std::uint32_t>(hop.from),
               static_cast<std::uint32_t>(hop.to), batch_tag(hop.leg),
               encoded.back()});
        });
    for (ShardId s = 0; s < map_.num_shards(); ++s) {
      if (s == shard_) continue;
      PeerState& peer = peers_[s];
      // Audited: one bounded frame per peer per round; encode_batch
      // sizes its buffer once from the record set and the result is
      // immediately moved into the peer's resend slot.
      // ddcverify: allow(hot-path-alloc)
      const std::vector<std::byte> payload = wire::encode_batch(
          plan_.round(), shard_, map_.num_shards(), outgoing[s]);
      peer.sent_frame = wire::encode_frame(wire::FrameKind::batch, shard_,
                                           plan_.round() + 1, payload);
      peer.sent_records = !outgoing[s].empty();
      peer.acked = false;
      peer.silent_polls = 0;
      // A batch buffered one round ahead becomes current now. (A batch
      // for THIS round that arrived between rounds is already slotted —
      // try_complete_round cleared the state before advancing.)
      if (!peer.got_batch && peer.future_round &&
          *peer.future_round == plan_.round()) {
        peer.records = std::move(peer.future_records);
        peer.future_records.clear();
        peer.future_round.reset();
        peer.got_batch = true;
      }
      transport_->send(s, peer.sent_frame);
      ++stats_.batch_frames_sent;
      stats_.batch_records_sent += outgoing[s].size();
    }
  }

  /// Drains the transport, slotting batches and acks into peer state.
  void pump_transport() {
    for (net::Packet& packet : transport_->receive()) {
      wire::Frame frame;
      try {
        frame = wire::decode_frame(packet.bytes);
      } catch (const wire::DecodeError&) {
        ++stats_.decode_errors;
        continue;
      }
      if (frame.kind == wire::FrameKind::batch) {
        handle_batch(packet.from, frame.payload);
      } else if (frame.kind == wire::FrameKind::batch_ack) {
        handle_ack(packet.from, frame.payload);
      }
      // Gossip/probe frames on a shard transport are not ours to handle.
    }
  }

  void handle_batch(net::PeerId from, std::span<const std::byte> payload) {
    wire::Batch batch;
    try {
      batch = wire::decode_batch(payload);
    } catch (const wire::DecodeError&) {
      ++stats_.decode_errors;
      return;
    }
    if (from >= peers_.size() || batch.shard != from ||
        batch.num_shards != map_.num_shards()) {
      ++stats_.decode_errors;
      return;
    }
    PeerState& peer = peers_[static_cast<ShardId>(from)];
    peer.dead = false;
    peer.silent_polls = 0;
    // Always ack — receipt, not application, is what stops retransmits.
    transport_->send(static_cast<ShardId>(from),
                     wire::encode_frame(wire::FrameKind::batch_ack, shard_,
                                        batch.round + 1,
                                        wire::encode_batch_ack(batch.round)));
    if (batch.round == plan_.round()) {
      if (!peer.got_batch) {
        peer.records = store_records(batch);
        peer.got_batch = true;
        ++stats_.batch_frames_received;
        stats_.batch_records_received += batch.records.size();
      }
    } else if (batch.round > plan_.round()) {
      // The peer moved on; a lockstep peer is at most one round ahead,
      // anything further means WE restarted behind the cluster. Either
      // way its current-round batch is implicitly settled.
      if (!peer.future_round || batch.round > *peer.future_round) {
        peer.future_round = batch.round;
        peer.future_records = store_records(batch);
        ++stats_.batch_frames_received;
        stats_.batch_records_received += batch.records.size();
      }
    }
    // batch.round < round(): a retransmit we already applied; the re-ack
    // above is the whole effect.
  }

  void handle_ack(net::PeerId from, std::span<const std::byte> payload) {
    std::uint64_t acked_round = 0;
    try {
      acked_round = wire::decode_batch_ack(payload);
    } catch (const wire::DecodeError&) {
      ++stats_.decode_errors;
      return;
    }
    if (from >= peers_.size()) return;
    PeerState& peer = peers_[static_cast<ShardId>(from)];
    peer.dead = false;
    peer.silent_polls = 0;
    if (acked_round == plan_.round() && !peer.acked) {
      peer.acked = true;
      ++stats_.acks_received;
    }
  }

  [[nodiscard]] std::vector<StoredRecord> store_records(
      const wire::Batch& batch) const {
    // Audited: the received payload spans borrow the transport's frame
    // buffer, which dies at the next receive() — copying them out is
    // the point. Bounded by the peer's record count for the round.
    // ddcverify: allow(hot-path-alloc)
    std::vector<StoredRecord> stored;
    stored.reserve(batch.records.size());
    for (const wire::BatchRecord& rec : batch.records) {
      StoredRecord s;
      s.src = rec.src;
      s.dst = rec.dst;
      s.tag = rec.tag;
      s.payload.assign(rec.payload.begin(), rec.payload.end());
      stored.push_back(std::move(s));
    }
    return stored;
  }

  /// A peer no longer blocks the barrier once its batch arrived, it
  /// provably moved past this round, or it timed out.
  [[nodiscard]] bool peer_settled(const PeerState& peer) const {
    const bool moved_on =
        peer.future_round && *peer.future_round > plan_.round();
    const bool batch_ok = peer.got_batch || peer.dead || moved_on;
    const bool ack_ok = peer.acked || peer.dead || moved_on;
    return batch_ok && ack_ok;
  }

  [[nodiscard]] bool barrier_reached() const {
    for (ShardId s = 0; s < map_.num_shards(); ++s) {
      if (s == shard_) continue;
      if (!peer_settled(peers_[s])) return false;
    }
    return true;
  }

  void maybe_retransmit() {
    if (options_.resend_interval_polls == 0 ||
        polls_this_round_ % options_.resend_interval_polls != 0) {
      return;
    }
    for (ShardId s = 0; s < map_.num_shards(); ++s) {
      if (s == shard_) continue;
      PeerState& peer = peers_[s];
      if (peer.acked || peer.dead) continue;
      // A peer provably past this round has received our batch (it could
      // not have settled its own barrier otherwise) — only its ack is
      // missing or in flight. Re-sending the frame, usually a bare
      // barrier token, would just provoke another re-ack;
      // peer_settled() already treats the advanced peer as settled.
      if (peer.future_round && *peer.future_round > plan_.round()) continue;
      // The planted bug the schedule explorer's self-test re-enables:
      // an early draft reasoned "an empty batch moves no data, so it
      // need not be retransmitted" — but the empty batch IS the
      // barrier token, and dropping its only copy deadlocks the round.
      if (options_.testing_suppress_empty_barrier_retransmit &&
          !peer.sent_records) {
        continue;
      }
      transport_->send(s, peer.sent_frame);
      ++stats_.retransmits;
    }
  }

  void maybe_expire_peers() {
    if (options_.max_exchange_polls == 0) return;
    for (ShardId s = 0; s < map_.num_shards(); ++s) {
      if (s == shard_) continue;
      PeerState& peer = peers_[s];
      if (peer_settled(peer)) continue;
      if (++peer.silent_polls > options_.max_exchange_polls) {
        peer.dead = true;
        ++stats_.peer_timeouts;
      }
    }
  }

  /// Phase 3 — the plan's delivery walk, over the hops this shard
  /// receives. Local messages come from outbox_/replies_; remote ones
  /// from the peers' batches, slotted into their planned positions
  /// (forward keyed by initiator, reply keyed by the initiator it
  /// answers).
  void deliver_messages() {
    for (std::size_t j = 0; j < nodes_.size(); ++j) inbox_[j].clear();
    // Planned-position index over the stored records of every peer.
    const std::size_t n = map_.num_nodes();
    fwd_index_.assign(n, nullptr);
    reply_index_.assign(n, nullptr);
    for (ShardId s = 0; s < map_.num_shards(); ++s) {
      if (s == shard_) continue;
      for (StoredRecord& rec : peers_[s].records) {
        rec.consumed = false;
        if (rec.src >= n || rec.dst >= n || !owns(rec.dst)) continue;
        if (rec.tag == wire::BatchTag::forward) {
          fwd_index_[rec.src] = &rec;
        } else {
          reply_index_[rec.dst] = &rec;
        }
      }
    }
    plan_.for_each_hop(
        [&](const sim::Hop& hop) {
          if (!owns(hop.to)) return false;
          return owns(hop.from) ? sent_locally(hop) : remote(hop) != nullptr;
        },
        [&](const sim::Hop& hop, sim::Fate fate) {
          if (fate != sim::Fate::delivered) return;
          if (owns(hop.from)) {
            inbox_[local(hop.to)].push_back(std::move(*message(hop)));
          } else {
            deliver_record(*remote(hop));
          }
        });
    // Records that matched no planned slot — only possible after a peer
    // restarted with a diverged plan. Deliver them in a deterministic
    // order so the healthy shards at least agree with each other.
    leftovers_.clear();
    for (ShardId s = 0; s < map_.num_shards(); ++s) {
      if (s == shard_) continue;
      for (StoredRecord& rec : peers_[s].records) {
        if (!rec.consumed && rec.dst < n && owns(rec.dst) &&
            plan_.alive(rec.dst)) {
          leftovers_.push_back(&rec);
        }
      }
    }
    std::sort(leftovers_.begin(), leftovers_.end(),
              [](const StoredRecord* a, const StoredRecord* b) {
                return std::tie(a->dst, a->tag, a->src) <
                       std::tie(b->dst, b->tag, b->src);
              });
    for (StoredRecord* rec : leftovers_) {
      ++stats_.unplanned_records;
      deliver_record(*rec);
    }
  }

  /// The peer record carrying a hop this shard receives, if it arrived.
  [[nodiscard]] StoredRecord* remote(const sim::Hop& hop) const {
    StoredRecord* rec = hop.leg == sim::Leg::forward
                            ? fwd_index_[hop.initiator]
                            : reply_index_[hop.initiator];
    return rec != nullptr && rec->src == hop.from && rec->dst == hop.to
               ? rec
               : nullptr;
  }

  [[nodiscard]] static wire::BatchTag batch_tag(sim::Leg leg) {
    return leg == sim::Leg::forward ? wire::BatchTag::forward
                                    : wire::BatchTag::reply;
  }

  void deliver_record(StoredRecord& rec) {
    rec.consumed = true;
    try {
      inbox_[local(rec.dst)].push_back(Codec::decode(rec.payload));
    } catch (const wire::DecodeError&) {
      ++stats_.decode_errors;
    }
  }

  /// Phase 4 — batch absorption over the owned nodes.
  void absorb_inboxes() {
    const std::span<const sim::NodeId> owned = map_.owned(shard_);
    exec::parallel_for(pool_.get(), nodes_.size(), [&](std::size_t j) {
      if (plan_.alive(owned[j]) && !inbox_[j].empty()) {
        nodes_[j].absorb(std::move(inbox_[j]));
      }
    });
  }

  sim::Topology topology_;
  ShardMap map_;
  ShardId shard_;
  std::vector<Node> nodes_;
  ShardEngineOptions options_;
  net::Transport* transport_;
  // Global per-round plan (replayed on every shard); replies_ is indexed
  // by the initiator a reply answers, which may live on any shard.
  sim::RoundPlan plan_;
  std::vector<std::optional<Message>> replies_;
  // Owned-range scratch.
  std::vector<std::optional<Message>> outbox_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<std::size_t> boundary_js_;
  std::vector<std::size_t> interior_js_;
  std::vector<StoredRecord*> fwd_index_;
  std::vector<StoredRecord*> reply_index_;
  std::vector<StoredRecord*> leftovers_;
  // send_batches() scratch, reused across rounds (hot-path-alloc).
  std::vector<std::vector<std::byte>> encode_scratch_;
  std::vector<std::vector<wire::BatchRecord>> outgoing_scratch_;
  std::vector<PeerState> peers_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::size_t polls_this_round_ = 0;
  bool round_open_ = false;
  ShardEngineStats stats_;
};

}  // namespace ddc::shard
