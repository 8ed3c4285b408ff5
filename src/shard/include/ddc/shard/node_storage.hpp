// Node storage of the round engine (shard_engine.hpp): where node state
// and in-flight messages live. ShardEngine picks one from its node type;
// both answer the same calls, addressed by a node's local index (its
// global id on one shard) and the planned sim::Hop: clear_messages,
// prepare, sent, absorb, and the classification read-outs.
//
// Both keep 2n message slots, one per (leg, initiator). No inbox is
// built: absorb reads each receiver's hops from the plan
// (RoundPlan::for_each_receive) and gathers their slots; every slot has
// one receiver, so the parallel absorb touches disjoint slots.
//
//   * ObjectStorage: one sim::GossipNode object per owned node; a
//     message decoded off the wire lands in its hop's slot.
//   * PoolStorage: the whole network in flat pools, for 10⁵–10⁶ nodes
//     where per-node objects drown in pointer chasing and allocator
//     metadata. One shard only: it has no row codec and no tracer.
//
// Bit-identity between the two is pinned by tests:
// tests/sim/soa_pool_receive_test.cpp compares each pool binding's
// receive_rows with GenericClassifier::receive, and
// tests/sim/scale_equivalence_test.cpp compares whole runs by digest.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>

namespace ddc::shard {

/// A hop's message slot among 2n: initiator i's forward is slot i, the
/// reply addressed to it slot n+i.
[[nodiscard]] inline std::size_t slot_of(const sim::Hop& hop,
                                         std::size_t n) noexcept {
  return hop.leg == sim::Leg::forward ? hop.initiator : n + hop.initiator;
}

/// The owned nodes in local order, and message slots over all
/// `num_nodes` initiators.
template <typename Node>
class ObjectStorage {
 public:
  using Message = typename Node::Message;

  ObjectStorage(std::vector<Node> nodes, std::size_t num_nodes)
      : nodes_(std::move(nodes)),
        slots_(2 * num_nodes),
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

  /// A hop's message, prepared here or decoded off the wire.
  [[nodiscard]] std::optional<Message>& message(const sim::Hop& hop) {
    return slots_[slot_of(hop, slots_.size() / 2)];
  }
  /// Local node j splits for `hop`; an empty message is never sent.
  // ddcverify: hotpath
  void prepare(std::size_t j, const sim::Hop& hop) {
    Message msg = nodes_[j].prepare_message();
    if (!msg.empty()) message(hop) = std::move(msg);
  }
  [[nodiscard]] bool sent(const sim::Hop& hop) const {
    return slots_[slot_of(hop, slots_.size() / 2)].has_value();
  }

  /// A message decoded off the wire that matched no planned hop; local
  /// node j absorbs it after its planned ones, in the order added.
  void add_unplanned(std::size_t j, Message&& msg) {
    batches_[j].push_back(std::move(msg));
  }

  /// Every live owned node moves its delivered messages out of their
  /// slots, in plan order and ahead of any unplanned ones, and absorbs
  /// them.
  // ddcverify: hotpath
  void absorb(const sim::RoundPlan& plan, std::span<const sim::NodeId> owned,
              exec::ThreadPool* pool) {
    exec::parallel_for(pool, nodes_.size(), [&](std::size_t j) {
      if (!plan.alive(owned[j])) return;
      std::vector<Message>& batch = batches_[j];
      const std::size_t unplanned = batch.size();
      plan.for_each_receive(
          owned[j], [&](const sim::Hop& hop) { return sent(hop); },
          [&](const sim::Hop& hop, sim::Fate fate) {
            if (fate == sim::Fate::delivered) {
              batch.push_back(std::move(*message(hop)));
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
  std::vector<Node> nodes_;
  std::vector<std::optional<Message>> slots_;
  // Per owned node: the batch absorb hands it, reused across rounds
  // (nodes take it by rvalue reference and leave its buffer here).
  std::vector<std::vector<Message>> batches_;
};

/// The whole network's state in flat pools:
///
///   * node state: a weight-quanta array (n × k int64), a packed summary
///     array (n × k × sd doubles) and a collection-count array;
///   * messages: an arena of 2n slots (slot i holds node i's forward,
///     slot n+i the reply addressed to node i), so the parallel prepare
///     writes disjoint slots with no allocation and no synchronization.
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
  PoolStorage(std::size_t num_nodes, Protocol protocol,
              InitSummary&& initial_summary)
      : protocol_(std::move(protocol)),
        n_(num_nodes),
        k_(protocol_.k()),
        sd_(protocol_.summary_doubles()),
        counts_(n_, 1),
        weights_(n_ * k_, 0),
        summaries_(n_ * k_ * sd_, 0.0),
        slot_counts_(2 * n_, 0),
        slot_weights_(2 * n_ * k_, 0),
        slot_summaries_(2 * n_ * k_ * sd_, 0.0) {
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
    const std::size_t slot = slot_of(hop, n_);
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
    return slot_counts_[slot_of(hop, n_)] > 0;
  }

  // ddcverify: hotpath
  void absorb(const sim::RoundPlan& plan, std::span<const sim::NodeId> owned,
              exec::ThreadPool* pool) {
    DDC_ASSERT(owned.size() == n_);
    const std::size_t chunks = exec::parallel_chunk_count(pool, n_);
    if (scratch_.size() < chunks) scratch_.resize(chunks);
    exec::parallel_for_chunks(
        pool, n_, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          for (sim::NodeId i = begin; i < end; ++i) {
            if (plan.alive(i)) receive_on_pools(plan, scratch_[chunk], i);
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
          const std::size_t slot = slot_of(hop, n_);
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

  // Node-state pools. counts_[i] collections live at rows i·k … i·k+c.
  std::vector<std::uint32_t> counts_;
  std::vector<std::int64_t> weights_;
  std::vector<double> summaries_;

  // Message slot arena: slot i / n+i is initiator i's forward / reply.
  std::vector<std::uint32_t> slot_counts_;
  std::vector<std::int64_t> slot_weights_;
  std::vector<double> slot_summaries_;

  // Per parallel chunk: the pool receive's scratch, grown on first use.
  std::vector<PoolScratch> scratch_;
};

}  // namespace ddc::shard
