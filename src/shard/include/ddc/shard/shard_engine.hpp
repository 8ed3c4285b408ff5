// The round engine: batched cross-shard gossip over Transport for
// thousands of nodes per process; over one shard, the whole simulation.
//
// A ShardEngine is one process's slice of a round-based simulation. The
// global Topology is split by a ShardMap (contiguous ranges or the
// edge-cut-aware BFS partitioner — see shard_map.hpp); this engine owns
// the node state of ONE shard, runs the shared sim::RoundPlan schedule
// (round_plan.hpp) for it, and exchanges the messages that cross a
// shard boundary through a net::Transport — all of one round's
// cross-shard messages to a given peer packed into a single
// wire::FrameKind::batch frame, acknowledged and retransmitted until
// delivered, with one batch per peer per round acting as the round
// barrier (an empty batch is the barrier token).
//
// Once warm, the exchange allocates nothing per message (decoding one
// still builds its classification). The sender writes each peer's
// frame in place into that peer's reused resend buffer
// (wire::append_frame_header, append_batch_header, then one
// append_batch_record per message, whose payload the storage appends
// to a reused record encoder). The receiver keeps each batch frame the
// transport hands it whole, for the round it belongs to or the one
// after, and its records are spans into that frame until the round
// retires them. A loopback cluster's engines share one read-only
// Topology.
//
// Node state lives in a storage picked from the node type
// (node_storage.hpp): object storage for a sim::GossipNode (the object
// engine), pool storage for a pool protocol (gossip/scale.hpp, the SoA
// engine). The storage owns its messages: it encodes and decodes them
// for the wire and sizes them for the event trace, so the engine never
// branches on it. One shard needs no transport, completes each round in
// its first poll and skips the boundary split and the record decode.
// Only one-shard engines take storages with no wire format (push-sum,
// dkmeans, pool storage) and event traces.
//
// Compute/communication overlap: with several shards, begin_round()
// splits the owned nodes into BOUNDARY (this round's plan moves one of
// their messages across a shard edge) and INTERIOR sets, prepares the
// boundary first, flushes the batch frames immediately, then prepares
// the interior in chunks with transport polls in between. Per-node
// prepare draws are node-local (the same reason prepare may run under
// parallel_for), so the boundary-first order cannot perturb any stream.
//
// Determinism: a 1-shard run, an S-shard loopback run and an S-process
// UDP run of the same EngineConfig produce bit-identical node states.
// The argument (DESIGN.md "Sharded cluster engine"):
//
//  * Every environment draw (neighbor selection, crash bernoullis) is
//    replayed IDENTICALLY on every shard: each engine carries a full
//    global RoundPlan — alive vector, selector state, contacts — and
//    walks all n nodes in the plan/crash phases, consuming exactly
//    the one-shard engine's draws. The alive vector evolves as a pure
//    function of the seed, so replicas never diverge.
//  * Node-local randomness derives from the protocol seed by GLOBAL
//    node id (gossip::make_*_node discipline), so a node's stream does
//    not depend on which shard hosts it.
//  * Channel loss is RoundPlan's stateless verdict, hashed from (seed,
//    round, leg, initiator): the sending shard and the receiving shard
//    reach the same verdict without exchanging it, so lossy runs, like
//    lossless ones, match the one-shard engine bit for bit.
//
// The engine is stepped — begin_round() sends, try_complete_round()
// polls — so a single thread can drive S in-process engines (see
// ShardCluster); run_round() wraps the two for one-engine-per-process
// drivers like ddcnode and for the one-shard engine. All exchange pacing
// is poll-counted, never wall-clock, to keep the deterministic core
// clock-free; timings() only reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/common/timing.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/net/transport.hpp>
#include <ddc/shard/node_storage.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/sim/trace.hpp>
#include <ddc/wire/framing.hpp>

namespace ddc::shard {

/// Configuration of a shard engine: the simulation fields are
/// RoundRunnerOptions' (parallelism applies to the plan's per-node passes
/// and to the owned nodes' prepare and absorb); the exchange fields pace
/// the batch protocol in transport polls (poll = one try_complete_round()
/// that did not finish the round).
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
  /// pump (LoopbackNetwork::advance; a short sleep over UDP).
  std::function<void()> idle = nullptr;
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

/// One process's shard of a round-based gossip simulation over a
/// sim::GossipNode or a pool protocol. A storage with no wire format
/// (Storage::kWire false) is allowed on one-shard maps only.
template <typename Node>
class ShardEngine {
  static constexpr bool kPools = !sim::GossipNode<Node>;
  using Storage =
      std::conditional_t<kPools, PoolStorage<Node>, ObjectStorage<Node>>;

 public:
  /// Takes ownership of shard `shard_id`'s node objects (`owned_nodes`
  /// must hold map.size(shard_id) nodes in map.owned(shard_id) order —
  /// ascending global id). `transport` is borrowed, must outlive the
  /// engine, and may be null only for a 1-shard map; its peer ids are
  /// shard ids.
  ShardEngine(sim::Topology topology, ShardMap map, ShardId shard_id,
              std::vector<Node> owned_nodes, net::Transport* transport,
              ShardEngineOptions options = {})
    requires(!kPools)
      : ShardEngine(std::make_shared<const sim::Topology>(std::move(topology)),
                    std::move(map), shard_id, std::move(owned_nodes),
                    transport, std::move(options)) {}

  /// The same over a topology shared with other engines (ShardCluster
  /// builds one for all its shards).
  ShardEngine(std::shared_ptr<const sim::Topology> topology, ShardMap map,
              ShardId shard_id, std::vector<Node> owned_nodes,
              net::Transport* transport, ShardEngineOptions options = {})
    requires(!kPools)
      : ShardEngine(std::move(topology), std::move(map), shard_id,
                    Storage(std::move(owned_nodes),
                            SlotLayout(map.num_nodes(), options.pattern)),
                    transport, std::move(options)) {}

  /// The one-shard object engine: takes ownership of `nodes`, one per
  /// topology vertex, with no transport.
  ShardEngine(sim::Topology topology, std::vector<Node> nodes,
              const sim::RoundRunnerOptions& options = {})
    requires(!kPools)
      : ShardEngine(std::move(topology), ShardMap(topology.num_nodes(), 1), 0,
                    Storage(std::move(nodes),
                            SlotLayout(topology.num_nodes(), options.pattern)),
                    nullptr, ShardEngineOptions{options}) {}

  /// The pool engine over `map`, which must have one shard: node i
  /// starts as one full-weight collection of summary
  /// `initial_summary(i)`, consumed during construction.
  template <typename InitSummary>
  ShardEngine(sim::Topology topology, ShardMap map, Node protocol,
              const sim::RoundRunnerOptions& options,
              InitSummary&& initial_summary)
    requires(kPools)
      : ShardEngine(std::move(topology), std::move(map), 0,
                    Storage(map.num_nodes(),
                            SlotLayout(map.num_nodes(), options.pattern),
                            std::move(protocol), initial_summary),
                    nullptr, ShardEngineOptions{options}) {}

  /// Plans the round (global replay) and prepares the owned nodes; with
  /// several shards, the boundary first, then this round's batch to
  /// every peer, then the interior with transport polls interleaved.
  /// Follow with try_complete_round().
  // ddcverify: hotpath
  void begin_round() {
    DDC_EXPECTS(!round_open_);
    timed_phase(timings_.plan_seconds,
                [&] { plan_.plan(*topology_, pool_.get()); });
    if (!one_shard()) classify_boundary();
    // Multi-shard, the timed prepare includes the sends and polls.
    timed_phase(timings_.prepare_seconds, [&] {
      storage_.clear_messages();
      if (one_shard()) {
        exec::parallel_for_chunks(
            pool_.get(), storage_.size(),
            [&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t j = begin; j < end; ++j) prepare_node(j, j);
            });
        return;
      }
      prepare_nodes(boundary_js_);
      send_batches();  // only reads boundary nodes' messages
      const std::size_t chunk = options_.overlap_chunk > 0
                                    ? options_.overlap_chunk
                                    : interior_js_.size();
      const std::span<const std::size_t> interior(interior_js_);
      for (std::size_t off = 0; off < interior.size(); off += chunk) {
        const std::size_t len = std::min(chunk, interior.size() - off);
        prepare_nodes(interior.subspan(off, len));
        if (off + len < interior.size()) {
          pump_transport();
          ++stats_.polls_during_compute;
        }
      }
    });
    polls_this_round_ = 0;
    round_open_ = true;
  }

  /// Polls the transport once; when every peer's round batch has arrived
  /// (or the peer timed out / moved ahead) and every own batch is acked,
  /// finishes the round (deliver, absorb, crash draws) and returns true.
  // ddcverify: hotpath
  [[nodiscard]] bool try_complete_round() {
    DDC_EXPECTS(round_open_);
    if (!one_shard()) {
      pump_transport();
      if (!barrier_reached()) {
        ++polls_this_round_;
        maybe_retransmit();
        maybe_expire_peers();
        if (!barrier_reached()) return false;
      }
    }
    timed_phase(timings_.deliver_seconds, [&] {
      if (!one_shard()) receive_records();
      if (trace_ == nullptr) return;
      // The trace, in walk order, before absorb moves the messages.
      plan_.for_each_hop(
          [&](const sim::Hop& hop) { return storage_.sent(hop); },
          [&](const sim::Hop& hop, sim::Fate fate) { trace_hop(hop, fate); });
    });
    timed_phase(timings_.absorb_seconds, [&] {
      storage_.absorb(plan_, map_.owned(shard_), pool_.get());
    });
    // Retire this round's exchange state BEFORE advancing the round
    // counter, so batches for the next round arriving early (via
    // service() between rounds, or the next round's polls) land in a
    // clean slot instead of being mistaken for stale state.
    for (PeerState& peer : peers_) {
      peer.records.clear();
      peer.got_batch = false;
      peer.acked = false;
    }
    plan_.end_round([&](sim::NodeId i) {
      if (trace_ != nullptr) {
        trace_->record({plan_.round(), sim::TraceEventType::crash, i, i, 0});
      }
    });
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
    return *topology_;
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return map_.num_nodes();
  }
  /// The owned node objects (object storage), local index =
  /// map().local_index(global id).
  [[nodiscard]] const auto& nodes() const noexcept { return storage_.nodes(); }
  [[nodiscard]] auto& nodes() noexcept { return storage_.nodes(); }
  [[nodiscard]] const ShardEngineStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const sim::RoundPhaseTimings& timings() const noexcept {
    return timings_;
  }

  /// Attaches (or detaches, with nullptr) an execution trace recorder,
  /// borrowed: it must outlive the rounds it observes. One shard only.
  void set_trace(sim::TraceRecorder* recorder) {
    DDC_EXPECTS(one_shard());
    trace_ = recorder;
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

  /// Streams every owned node's classification through
  /// `fn(global id, classification)` in local order (node order on one
  /// shard). Pool storage reuses one scratch classification, so the
  /// reference is invalidated by the next call of `fn`.
  template <typename Fn>
  void for_each_classification(Fn&& fn) const {
    const OwnedIds owned = map_.owned(shard_);
    storage_.for_each_classification(
        [&](std::size_t j, const auto& c) { fn(owned[j], c); });
  }
  /// Owned node i's classification (pool storage returns a copy).
  [[nodiscard]] decltype(auto) classification_of(sim::NodeId i) const {
    DDC_EXPECTS(i < map_.num_nodes() && owns(i));
    return storage_.classification_of(local(i));
  }
  /// Sum of weight quanta held by all nodes (pool storage).
  [[nodiscard]] std::int64_t total_quanta() const noexcept {
    return storage_.total_quanta();
  }
  /// Wall-clock in the owned nodes' partitions (with re-homes) and EM
  /// runs (0.0 without EM), summed over nodes, so above one thread they
  /// can exceed the absorb wall-clock.
  [[nodiscard]] double partition_seconds() const {
    return storage_.partition_seconds();
  }
  [[nodiscard]] double em_seconds() const { return storage_.em_seconds(); }

 private:
  // The delegation targets. They bind `topology` and `map` by reference
  // so that the public constructors can size the storage from them
  // before anything is moved from.
  ShardEngine(sim::Topology&& topology, ShardMap&& map, ShardId shard_id,
              Storage&& storage, net::Transport* transport,
              ShardEngineOptions&& options)
      : ShardEngine(std::make_shared<const sim::Topology>(std::move(topology)),
                    std::move(map), shard_id, std::move(storage), transport,
                    std::move(options)) {}
  ShardEngine(std::shared_ptr<const sim::Topology> topology, ShardMap&& map,
              ShardId shard_id, Storage&& storage, net::Transport* transport,
              ShardEngineOptions&& options)
      : topology_(std::move(topology)),
        map_(std::move(map)),
        shard_(shard_id),
        storage_(std::move(storage)),
        options_(std::move(options)),
        transport_(transport),
        plan_(options_, map_.num_nodes()),
        peers_(map_.num_shards()),
        pool_(exec::ThreadPool::for_parallelism(options_.parallelism)) {
    DDC_EXPECTS(Storage::kWire || one_shard());
    DDC_EXPECTS(shard_ < map_.num_shards());
    DDC_EXPECTS(topology_ != nullptr &&
                topology_->num_nodes() == map_.num_nodes());
    DDC_EXPECTS(storage_.size() == map_.size(shard_));
    DDC_EXPECTS(one_shard() ||
                (transport_ != nullptr &&
                 transport_->num_peers() == map_.num_shards() &&
                 transport_->self() == shard_));
    if (!one_shard()) stats_.cut_edges = map_.cut_edges(*topology_, shard_);
  }

  /// One logical message captured off the wire; its payload is a span
  /// of the received frame its peer keeps for the record's round.
  struct StoredRecord {
    sim::NodeId src = 0;
    sim::NodeId dst = 0;
    wire::BatchTag tag = wire::BatchTag::forward;
    std::span<const std::byte> payload;
    bool consumed = false;
  };

  /// Exchange state for one peer shard. The hop list, the resend
  /// encoder and the record arrays are reused across rounds; a received
  /// frame is the transport's buffer, held until the next one kept
  /// replaces it.
  struct PeerState {
    std::vector<sim::Hop> hops;  // this round's delivered hops to it
    wire::Encoder sent_frame;    // this round's batch, for resend
    bool sent_records = false;   // false = bare barrier token
    bool acked = false;
    bool got_batch = false;
    std::vector<std::byte> frame;  // the received batch frame of...
    std::vector<StoredRecord> records;  // ...these records
    /// One-round-ahead buffer: a lockstep peer can be at most one round
    /// ahead of us, and its next batch may arrive while we still wait
    /// for a slower peer.
    std::optional<std::uint64_t> future_round;
    std::vector<std::byte> future_frame;
    std::vector<StoredRecord> future_records;
    std::size_t silent_polls = 0;
    bool dead = false;
  };

  // On one shard every node is owned and local index = global id, which
  // spares the hot loops the out-of-line map lookups.
  [[nodiscard]] bool one_shard() const noexcept {
    return map_.num_shards() == 1;
  }
  [[nodiscard]] bool owns(sim::NodeId i) const {
    return one_shard() || map_.owns(shard_, i);
  }
  [[nodiscard]] std::size_t local(sim::NodeId i) const {
    return one_shard() ? i : map_.local_index(i);
  }

  /// Splits the owned nodes into boundary (one of this round's splits
  /// crosses a shard edge) and interior. Boundary nodes are prepared
  /// first so the batch frames can leave before interior compute starts.
  void classify_boundary() {
    boundary_js_.clear();
    interior_js_.clear();
    const OwnedIds owned = map_.owned(shard_);
    for (std::size_t j = 0; j < owned.size(); ++j) {
      bool boundary = false;
      plan_.for_each_split(owned[j], [&](const sim::Hop& hop) {
        boundary = boundary || !owns(hop.to);
      });
      (boundary ? boundary_js_ : interior_js_).push_back(j);
    }
    stats_.boundary_nodes += boundary_js_.size();
  }

  /// Phase 2 — the plan's split order for owned node g at local index
  /// j. The plan is global, so an owned responder interleaves its own
  /// send between lower- and higher-indexed initiators exactly as the
  /// monolithic engine would, remote initiators included. Per-node draws
  /// are node-local, so any split of the owned set across calls and
  /// threads is bit-identical.
  void prepare_node(std::size_t j, sim::NodeId g) {
    plan_.for_each_split(
        g, [&](const sim::Hop& hop) { storage_.prepare(j, hop); });
  }
  void prepare_nodes(std::span<const std::size_t> js) {
    const OwnedIds owned = map_.owned(shard_);
    exec::parallel_for(pool_.get(), js.size(), [&](std::size_t idx) {
      prepare_node(js[idx], owned[js[idx]]);
    });
  }

  /// Writes this round's outbound cross-shard messages into one batch
  /// frame per peer, in place, and ships every frame (empty batches
  /// included — the barrier token). Loss and dead-target verdicts are
  /// applied HERE, sender-side — they are global functions, so the
  /// receiver would agree.
  void send_batches() {
    for (PeerState& peer : peers_) peer.hops.clear();
    plan_.for_each_hop(
        [&](const sim::Hop& hop) {
          return owns(hop.from) && !owns(hop.to) && storage_.sent(hop);
        },
        [&](const sim::Hop& hop, sim::Fate fate) {
          if (fate == sim::Fate::delivered) {
            peers_[map_.shard_of(hop.to)].hops.push_back(hop);
          }
        });
    for (ShardId s = 0; s < map_.num_shards(); ++s) {
      if (s == shard_) continue;
      PeerState& peer = peers_[s];
      wire::Encoder& frame = peer.sent_frame;
      frame.clear();
      wire::append_frame_header(frame, wire::FrameKind::batch, shard_,
                                plan_.round() + 1);
      wire::append_batch_header(frame, plan_.round(), shard_,
                                map_.num_shards(), peer.hops.size());
      for (const sim::Hop& hop : peer.hops) {
        record_.clear();
        storage_.encode(hop, record_);
        wire::append_batch_record(
            frame, {hop.from, hop.to, batch_tag(hop.leg), record_.bytes()});
      }
      peer.sent_records = !peer.hops.empty();
      peer.acked = false;
      peer.silent_polls = 0;
      // A batch buffered one round ahead becomes current now, its frame
      // with it. (A batch for THIS round that arrived between rounds is
      // already slotted — try_complete_round cleared the state before
      // advancing.)
      if (!peer.got_batch && peer.future_round &&
          *peer.future_round == plan_.round()) {
        peer.records.swap(peer.future_records);
        peer.frame.swap(peer.future_frame);
        peer.future_records.clear();
        peer.future_round.reset();
        peer.got_batch = true;
      }
      transport_->send(s, frame.bytes());
      ++stats_.batch_frames_sent;
      stats_.batch_records_sent += peer.hops.size();
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
        handle_batch(packet.from, frame.payload, packet.bytes);
      } else if (frame.kind == wire::FrameKind::batch_ack) {
        handle_ack(packet.from, frame.payload);
      }
      // Gossip/probe frames on a shard transport are not ours to handle.
    }
  }

  /// `payload` is the batch inside `bytes`, the frame the transport
  /// handed over. A batch kept for this round or the next takes the
  /// frame with it, and its records' payloads are spans into it.
  void handle_batch(net::PeerId from, std::span<const std::byte> payload,
                    std::vector<std::byte>& bytes) {
    wire::Batch& batch = decoded_;
    try {
      wire::decode_batch(payload, batch);
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
    ack_.clear();
    wire::append_frame_header(ack_, wire::FrameKind::batch_ack, shard_,
                              batch.round + 1);
    wire::append_batch_ack(ack_, batch.round);
    transport_->send(static_cast<ShardId>(from), ack_.bytes());
    if (batch.round == plan_.round()) {
      if (!peer.got_batch) {
        keep(batch, bytes, peer.frame, peer.records);
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
        keep(batch, bytes, peer.future_frame, peer.future_records);
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

  /// Keeps a batch decoded from `bytes`: the frame is swapped into
  /// `frame` (whose old bytes no record points into any more) and the
  /// records, spans into it, replace `records`. A swap keeps each
  /// buffer where it is, so the spans stay valid.
  static void keep(const wire::Batch& batch, std::vector<std::byte>& bytes,
                   std::vector<std::byte>& frame,
                   std::vector<StoredRecord>& records) {
    frame.swap(bytes);
    records.clear();
    for (const wire::BatchRecord& rec : batch.records) {
      records.push_back({rec.src, rec.dst, rec.tag, rec.payload});
    }
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
      transport_->send(s, peer.sent_frame.bytes());
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

  /// Phase 3, several shards: a peer record carrying its planned hop
  /// from a remote sender, with a delivered fate, is decoded into the
  /// hop's slot (of several records for one slot, only the last received
  /// may match). Other records for live owned nodes — only possible after
  /// a peer restarted with a diverged plan — are absorbed after the
  /// planned ones in (dst, tag, src) order, so healthy shards agree.
  void receive_records() {
    const std::size_t n = map_.num_nodes();
    const auto for_each_record_here = [&](auto&& fn) {
      for (ShardId s = 0; s < map_.num_shards(); ++s) {
        if (s == shard_) continue;
        for (StoredRecord& rec : peers_[s].records) {
          if (rec.dst < n && owns(rec.dst)) fn(rec);
        }
      }
    };
    const SlotLayout layout(n, options_.pattern);
    candidates_.clear();
    for_each_record_here([&](StoredRecord& rec) {
      if (rec.src < n) {
        candidates_.emplace_back(layout.slot(hop_of(rec)),
                                 candidates_.size(), &rec);
      }
    });
    std::sort(candidates_.begin(), candidates_.end());  // arrivals unique
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      const std::size_t slot = std::get<0>(candidates_[c]);
      StoredRecord& rec = *std::get<2>(candidates_[c]);
      const sim::Hop hop = hop_of(rec);
      const bool last = c + 1 == candidates_.size() ||
                        std::get<0>(candidates_[c + 1]) != slot;
      bool delivered = false;  // the plan delivers `hop` to its receiver
      plan_.for_each_receive(
          hop.to, [&](const sim::Hop& planned) { return planned == hop; },
          [&](const sim::Hop&, sim::Fate fate) {
            delivered = fate == sim::Fate::delivered;
          });
      if (last && !owns(hop.from) && delivered) {
        rec.consumed = true;
        try {
          storage_.decode(hop, rec.payload);
        } catch (const wire::DecodeError&) {
          ++stats_.decode_errors;
        }
      }
    }
    leftovers_.clear();
    for_each_record_here([&](StoredRecord& rec) {
      if (!rec.consumed && plan_.alive(rec.dst)) leftovers_.push_back(&rec);
    });
    std::sort(leftovers_.begin(), leftovers_.end(),
              [](const StoredRecord* a, const StoredRecord* b) {
                return std::tie(a->dst, a->tag, a->src) <
                       std::tie(b->dst, b->tag, b->src);
              });
    for (StoredRecord* rec : leftovers_) {
      ++stats_.unplanned_records;
      try {
        storage_.decode_unplanned(local(rec->dst), rec->payload);
      } catch (const wire::DecodeError&) {
        ++stats_.decode_errors;
      }
    }
  }

  /// The hop a peer record claims to carry.
  [[nodiscard]] static sim::Hop hop_of(const StoredRecord& rec) {
    return rec.tag == wire::BatchTag::forward
               ? sim::Hop{rec.src, sim::Leg::forward, rec.src, rec.dst}
               : sim::Hop{rec.dst, sim::Leg::reply, rec.src, rec.dst};
  }

  [[nodiscard]] static wire::BatchTag batch_tag(sim::Leg leg) {
    return leg == sim::Leg::forward ? wire::BatchTag::forward
                                    : wire::BatchTag::reply;
  }

  /// Records one step of the walk: a missing target, or a send and what
  /// became of it.
  void trace_hop(const sim::Hop& hop, sim::Fate fate) {
    using Event = sim::TraceEventType;
    const auto record = [&](Event type, std::size_t payload) {
      trace_->record({plan_.round(), type, hop.from, hop.to, payload});
    };
    if (fate == sim::Fate::no_target) {
      record(Event::no_live_neighbor, 0);
      return;
    }
    const std::size_t payload = storage_.sent_size(hop);
    record(Event::send, payload);
    const Event outcome = fate == sim::Fate::dead_target ? Event::dead_target
                          : fate == sim::Fate::lost      ? Event::loss
                                                         : Event::deliver;
    record(outcome, payload);
  }

  std::shared_ptr<const sim::Topology> topology_;
  ShardMap map_;
  ShardId shard_;
  Storage storage_;
  ShardEngineOptions options_;
  net::Transport* transport_;
  // Global per-round plan, replayed on every shard.
  sim::RoundPlan plan_;
  // Multi-shard scratch: the boundary split and the received records.
  std::vector<std::size_t> boundary_js_;
  std::vector<std::size_t> interior_js_;
  // Peer records as (slot, arrival, record): sorted, the last record
  // received for a slot comes last.
  std::vector<std::tuple<std::size_t, std::size_t, StoredRecord*>>
      candidates_;
  std::vector<StoredRecord*> leftovers_;
  // Exchange scratch, reused across rounds: one message's payload on its
  // way into a batch frame, the ack frame, the batch being received.
  wire::Encoder record_;
  wire::Encoder ack_;
  wire::Batch decoded_;
  std::vector<PeerState> peers_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::size_t polls_this_round_ = 0;
  bool round_open_ = false;
  ShardEngineStats stats_;
  sim::RoundPhaseTimings timings_;
  sim::TraceRecorder* trace_ = nullptr;
};

}  // namespace ddc::shard
