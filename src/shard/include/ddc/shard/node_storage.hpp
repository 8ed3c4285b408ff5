// Node storage of the round engine (shard_engine.hpp): where node state
// and in-flight messages live, and the only place that knows how those
// messages are encoded, traced and received. ShardEngine picks one from
// its node type; both answer the same calls, addressed by a node's local
// index (its global id on one shard) and the planned sim::Hop:
// clear_messages, prepare, sent, sent_size (the collection count the
// trace records), the wire hooks kWire/encode/decode/decode_unplanned,
// absorb, and the classification read-outs. encode appends a message to
// the engine's record encoder, so the engine writes a peer's whole batch
// frame in one reused buffer; decode reads a span of the received frame
// the engine keeps for the round.
//
// Both keep one message slot per initiator for each leg the gossip
// pattern uses (SlotLayout): n slots for push or pull, 2n for
// push-pull. No inbox is built: absorb reads each receiver's hops from
// the plan (RoundPlan::for_each_receive) and gathers their slots; every
// slot has one receiver, so the parallel absorb touches disjoint slots.
//
//   * ObjectStorage: one sim::GossipNode object per owned node; a
//     message decoded off the wire lands in its hop's slot. Messages
//     travel as wire::encode_classification where the summary domain
//     has a wire::SummaryCodec; push-sum and dkmeans stay on one shard.
//   * PoolStorage: the whole network in flat pools, for 10⁵–10⁶ nodes
//     where per-node objects drown in pointer chasing and allocator
//     metadata. One shard only: it has no row codec yet.
//
// Bit-identity between the two is pinned by tests:
// tests/sim/soa_pool_receive_test.cpp compares each pool binding's
// receive_rows with GenericClassifier::receive, and
// tests/sim/scale_equivalence_test.cpp compares whole runs by digest and
// by event trace.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc::shard {

/// The message slots of a round over n nodes: one per initiator for each
/// leg the pattern uses, so n for push or pull and 2n for push-pull.
/// Initiator i's message on the pattern's first leg (its forward; under
/// pull, the reply owed to it) is slot i, its other leg slot n+i. The
/// numbering covers every (leg, initiator) pair without collisions, so a
/// hop on a leg the pattern never plans maps to a slot ≥ size(), which no
/// storage holds or writes.
class SlotLayout {
 public:
  SlotLayout(std::size_t num_nodes, sim::GossipPattern pattern) noexcept
      : n_(num_nodes), pattern_(pattern) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return pattern_ == sim::GossipPattern::push_pull ? 2 * n_ : n_;
  }
  [[nodiscard]] std::size_t slot(const sim::Hop& hop) const noexcept {
    const bool first_leg = (hop.leg == sim::Leg::forward) !=
                           (pattern_ == sim::GossipPattern::pull);
    return first_leg ? hop.initiator : n_ + hop.initiator;
  }

 private:
  std::size_t n_;
  sim::GossipPattern pattern_;
};

/// Every wire hook of a storage without a wire format: the engine keeps
/// such a storage on one shard, so none is ever reached.
[[noreturn]] inline void no_wire_format() {
  throw ContractViolation("node storage has no wire format");
}

/// The owned nodes in local order, and message slots over all
/// `num_nodes` initiators (SlotLayout).
template <typename Node>
class ObjectStorage {
 public:
  using Message = typename Node::Message;
  /// A classification whose summary domain has a wire::SummaryCodec
  /// crosses a shard edge as wire::encode_classification bytes (its
  /// diagnostic, O(n) aux vectors never travel).
  static constexpr bool kWire = requires {
    wire::SummaryCodec<decltype(Message::value_type::summary)>::type;
  };

  ObjectStorage(std::vector<Node> nodes, SlotLayout layout)
      : nodes_(std::move(nodes)),
        layout_(layout),
        slots_(layout.size()),
        batches_(nodes_.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }

  void clear_messages() {
    for (std::optional<Message>& slot : slots_) slot.reset();
    for (std::vector<Message>& batch : batches_) batch.clear();
  }

  /// Local node j splits for `hop`; an empty message is never sent.
  // ddcverify: hotpath
  void prepare(std::size_t j, const sim::Hop& hop) {
    Message msg = nodes_[j].prepare_message();
    if (!msg.empty()) slots_[layout_.slot(hop)] = std::move(msg);
  }
  [[nodiscard]] bool sent(const sim::Hop& hop) const {
    return slots_[layout_.slot(hop)].has_value();
  }
  /// A sent hop's collection count, for the trace (a scalar message, as
  /// push-sum's, counts one).
  [[nodiscard]] std::size_t sent_size(const sim::Hop& hop) const {
    const Message& msg = *slots_[layout_.slot(hop)];
    if constexpr (requires { msg.size(); }) return msg.size();
    return 1;
  }

  /// Appends a sent hop's message in its wire format to `out`. decode
  /// puts a message read off the wire into its hop's slot;
  /// decode_unplanned queues one that matched no planned hop, for local
  /// node j to absorb after its planned ones, in the order added. Both
  /// throw wire::DecodeError on a malformed payload.
  void encode(const sim::Hop& hop, wire::Encoder& out) const {
    if constexpr (kWire) {
      wire::append_classification(out, *slots_[layout_.slot(hop)]);
      return;
    }
    no_wire_format();
  }
  void decode(const sim::Hop& hop, std::span<const std::byte> payload) {
    slots_[layout_.slot(hop)] = decode_message(payload);
  }
  void decode_unplanned(std::size_t j, std::span<const std::byte> payload) {
    batches_[j].push_back(decode_message(payload));
  }

  /// Every live owned node moves its delivered messages out of their
  /// slots, in plan order and ahead of any unplanned ones, and absorbs
  /// them.
  // ddcverify: hotpath
  void absorb(const sim::RoundPlan& plan, const OwnedIds& owned,
              exec::ThreadPool* pool) {
    exec::parallel_for(pool, nodes_.size(), [&](std::size_t j) {
      if (!plan.alive(owned[j])) return;
      std::vector<Message>& batch = batches_[j];
      const std::size_t unplanned = batch.size();
      plan.for_each_receive(
          owned[j], [&](const sim::Hop& hop) { return sent(hop); },
          [&](const sim::Hop& hop, sim::Fate fate) {
            if (fate == sim::Fate::delivered) {
              batch.push_back(std::move(*slots_[layout_.slot(hop)]));
            }
          });
      std::rotate(batch.begin(), batch.begin() + unplanned, batch.end());
      if (!batch.empty()) nodes_[j].absorb(std::move(batch));
    });
  }

  template <typename Fn>
  void for_each_classification(Fn&& fn) const {
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      fn(j, nodes_[j].classification());
    }
  }
  [[nodiscard]] const auto& classification_of(std::size_t j) const {
    return nodes_[j].classification();
  }
  [[nodiscard]] double partition_seconds() const {
    double acc = 0.0;
    for (const Node& node : nodes_) {
      acc += node.classifier().stats().partition_seconds;
    }
    return acc;
  }
  /// 0.0 for protocols without an EM stage.
  [[nodiscard]] double em_seconds() const {
    double acc = 0.0;
    for (const Node& node : nodes_) {
      if constexpr (requires {
                      node.classifier().partition_policy().em_seconds();
                    }) {
        acc += node.classifier().partition_policy().em_seconds();
      }
    }
    return acc;
  }

 private:
  [[nodiscard]] static Message decode_message(
      std::span<const std::byte> payload) {
    if constexpr (kWire) {
      return wire::decode_classification<
          decltype(Message::value_type::summary)>(payload);
    }
    no_wire_format();
  }

  std::vector<Node> nodes_;
  SlotLayout layout_;
  std::vector<std::optional<Message>> slots_;
  // Per owned node: the batch absorb hands it, reused across rounds
  // (nodes take it by rvalue reference and leave its buffer here).
  std::vector<std::vector<Message>> batches_;
};

/// The whole network's state in flat pools:
///
///   * node state: a weight-quanta array (n × k int64), a packed summary
///     array (n × k × sd doubles) and a collection-count array;
///   * messages: an arena of SlotLayout (n slots for push or pull, 2n
///     for push-pull), each a count, k quanta and k packed summaries, so
///     the parallel prepare writes disjoint slots with no allocation and
///     no synchronization.
///
/// `Protocol` (gossip/scale.hpp) says how one protocol embeds into the
/// pools: k() collections per node, summary_doubles() = sd per packed
/// summary (pack / unpack round-trip exactly), quanta_per_unit(), and
/// receive_rows(scratch, m, out_rows, out_quanta) — Algorithm 1's
/// receive on the m collections gathered into a PoolScratch (rows: m ×
/// sd, quanta: m, its own working memory, `stats` and optionally
/// `em_seconds`), writing the ≤ k results and returning their count.
template <typename Protocol>
class PoolStorage {
 public:
  using Summary = typename Protocol::Summary;
  using Message = core::Classification<Summary>;

  /// Node i starts as one full-weight collection of initial_summary(i).
  template <typename InitSummary>
  PoolStorage(std::size_t num_nodes, SlotLayout layout, Protocol protocol,
              InitSummary&& initial_summary)
      : protocol_(std::move(protocol)),
        n_(num_nodes),
        k_(protocol_.k()),
        sd_(protocol_.summary_doubles()),
        layout_(layout),
        counts_(n_, 1),
        weights_(n_ * k_, 0),
        summaries_(n_ * k_ * sd_, 0.0),
        slot_counts_(layout.size(), 0),
        slot_weights_(layout.size() * k_, 0),
        slot_summaries_(layout.size() * k_ * sd_, 0.0) {
    DDC_EXPECTS(n_ >= 2);
    DDC_EXPECTS(k_ >= 1);
    DDC_EXPECTS(sd_ >= 1);
    for (sim::NodeId i = 0; i < n_; ++i) {
      weights_[i * k_] = protocol_.quanta_per_unit();
      protocol_.pack(initial_summary(i), &summaries_[i * k_ * sd_]);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  void clear_messages() {
    std::fill(slot_counts_.begin(), slot_counts_.end(), std::uint32_t{0});
  }

  /// GenericClassifier::split on the pools: halves each of node j's
  /// collections in place (a 1-quantum collection stays home whole) and
  /// copies the sent halves into the hop's arena slot, which only node
  /// j's prepare writes.
  // ddcverify: hotpath
  void prepare(std::size_t j, const sim::Hop& hop) {
    const std::size_t slot = layout_.slot(hop);
    std::uint32_t sent_count = 0;
    for (std::size_t c = 0; c < counts_[j]; ++c) {
      std::int64_t& quanta = weights_[j * k_ + c];
      const core::Weight weight = core::Weight::from_quanta(quanta);
      const core::Weight sent = weight.remainder_after_half();
      if (sent.is_zero()) continue;
      quanta = weight.half().quanta();
      const std::size_t out = slot * k_ + sent_count;
      slot_weights_[out] = sent.quanta();
      std::copy_n(&summaries_[(j * k_ + c) * sd_], sd_,
                  &slot_summaries_[out * sd_]);
      ++sent_count;
    }
    slot_counts_[slot] = sent_count;
  }
  [[nodiscard]] bool sent(const sim::Hop& hop) const {
    return sent_size(hop) > 0;
  }
  /// A hop's collection count, for the trace.
  [[nodiscard]] std::size_t sent_size(const sim::Hop& hop) const {
    return slot_counts_[layout_.slot(hop)];
  }

  /// No row codec yet: the engine keeps pool storage on one shard.
  static constexpr bool kWire = false;
  void encode(const sim::Hop&, wire::Encoder&) const { no_wire_format(); }
  void decode(const sim::Hop&, std::span<const std::byte>) { no_wire_format(); }
  void decode_unplanned(std::size_t, std::span<const std::byte>) {
    no_wire_format();
  }

  // ddcverify: hotpath
  void absorb(const sim::RoundPlan& plan, const OwnedIds& owned,
              exec::ThreadPool* pool) {
    DDC_ASSERT(owned.size() == n_);
    const std::size_t chunks = exec::parallel_chunk_count(pool, n_);
    if (scratch_.size() < chunks) scratch_.resize(chunks);
    exec::parallel_for_chunks(
        pool, n_, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const auto id = static_cast<sim::NodeId>(i);
            if (plan.alive(id)) receive_on_pools(plan, scratch_[chunk], id);
          }
        });
  }

  /// Reuses ONE scratch classification: no per-node history exists.
  template <typename Fn>
  void for_each_classification(Fn&& fn) const {
    Message scratch;
    for (sim::NodeId i = 0; i < n_; ++i) {
      unpack_node(i, scratch);
      fn(i, static_cast<const Message&>(scratch));
    }
  }
  [[nodiscard]] Message classification_of(std::size_t i) const {
    Message result;
    unpack_node(i, result);
    return result;
  }

  /// The conservation audit at scale, with no unpacking.
  [[nodiscard]] std::int64_t total_quanta() const noexcept {
    std::int64_t acc = 0;
    for (sim::NodeId i = 0; i < n_; ++i) {
      for (std::size_t c = 0; c < counts_[i]; ++c) acc += weights_[i * k_ + c];
    }
    return acc;
  }

  /// Every receive runs on one chunk's scratch, so the sums over chunks
  /// equal the object storage's sums over nodes.
  [[nodiscard]] double partition_seconds() const noexcept {
    double acc = 0.0;
    for (const PoolScratch& s : scratch_) acc += s.stats.partition_seconds;
    return acc;
  }
  [[nodiscard]] double em_seconds() const noexcept {
    double acc = 0.0;
    for (const PoolScratch& s : scratch_) {
      if constexpr (requires { s.em_seconds; }) acc += s.em_seconds;
    }
    return acc;
  }

 private:
  using PoolScratch = typename Protocol::PoolScratch;

  /// Gathers node i's rows, then its delivered slots' rows in plan order
  /// (receive's union order), into the chunk's scratch; the protocol
  /// receives on them and writes the result straight into the pools.
  void receive_on_pools(const sim::RoundPlan& plan, PoolScratch& s,
                        sim::NodeId i) {
    const std::size_t own = counts_[i];
    std::size_t m = own;
    plan.for_each_receive(
        i, [&](const sim::Hop& hop) { return sent(hop); },
        [&](const sim::Hop& hop, sim::Fate fate) {
          if (fate != sim::Fate::delivered) return;
          const std::size_t slot = layout_.slot(hop);
          m = gather_rows(&slot_weights_[slot * k_],
                          &slot_summaries_[slot * k_ * sd_],
                          slot_counts_[slot], s, m);
        });
    if (m == own) return;
    gather_rows(&weights_[i * k_], &summaries_[i * k_ * sd_], own, s, 0);
    const std::size_t count = protocol_.receive_rows(
        s, m, &summaries_[i * k_ * sd_], &weights_[i * k_]);
    DDC_ASSERT(count >= 1 && count <= k_);
    counts_[i] = static_cast<std::uint32_t>(count);
  }

  /// Writes `count` collections (quanta, then sd-wide summary rows) into
  /// the scratch at position `at`, growing it; returns the new end.
  std::size_t gather_rows(const std::int64_t* quanta, const double* rows,
                          std::size_t count, PoolScratch& s,
                          std::size_t at) const {
    if (s.quanta.size() < at + count) {
      s.quanta.resize(at + count);
      s.rows.resize((at + count) * sd_);
    }
    std::copy_n(quanta, count, s.quanta.data() + at);
    std::copy_n(rows, count * sd_, s.rows.data() + at * sd_);
    return at + count;
  }

  /// Rebuilds node i's classification into `out` (clearing it first).
  void unpack_node(std::size_t i, Message& out) const {
    out.collections().clear();
    for (std::size_t c = 0; c < counts_[i]; ++c) {
      out.add(core::Collection<Summary>{
          protocol_.unpack(&summaries_[(i * k_ + c) * sd_]),
          core::Weight::from_quanta(weights_[i * k_ + c]),
          {}});
    }
  }

  Protocol protocol_;
  std::size_t n_;
  std::size_t k_;
  std::size_t sd_;
  SlotLayout layout_;

  // Node-state pools. counts_[i] collections live at rows i·k … i·k+c.
  std::vector<std::uint32_t> counts_;
  std::vector<std::int64_t> weights_;
  std::vector<double> summaries_;

  // Message slot arena, numbered by layout_.
  std::vector<std::uint32_t> slot_counts_;
  std::vector<std::int64_t> slot_weights_;
  std::vector<double> slot_summaries_;

  // Per parallel chunk: the pool receive's scratch, grown on first use.
  std::vector<PoolScratch> scratch_;
};

}  // namespace ddc::shard
