// Node storage of the round engine (shard_engine.hpp): where node state
// and in-flight messages live. ShardEngine picks one from its node type;
// both answer the same calls, addressed by a node's local index (its
// global id on one shard) and the planned sim::Hop: clear_messages,
// prepare, sent, clear_inboxes, deliver, seal_inboxes, absorb, and the
// classification read-outs.
//
//   * ObjectStorage: one sim::GossipNode object per owned node, with
//     optional outbox and reply messages and one inbox vector per node.
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

/// The owned nodes in local order; replies are indexed by the initiator
/// they answer, which may be any of `num_nodes`.
template <typename Node>
class ObjectStorage {
 public:
  using Message = typename Node::Message;

  ObjectStorage(std::vector<Node> nodes, std::size_t num_nodes)
      : nodes_(std::move(nodes)),
        replies_(num_nodes),
        outbox_(nodes_.size()),
        inbox_(nodes_.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }

  void clear_messages() {
    for (std::optional<Message>& reply : replies_) reply.reset();
    for (std::optional<Message>& out : outbox_) out.reset();
  }

  /// The message of a hop sent by local node j: a forward sits in j's
  /// outbox slot, a reply in the slot of the initiator it answers.
  [[nodiscard]] std::optional<Message>& message(std::size_t j,
                                                const sim::Hop& hop) {
    return hop.leg == sim::Leg::forward ? outbox_[j] : replies_[hop.initiator];
  }
  // ddcverify: hotpath
  void prepare(std::size_t j, const sim::Hop& hop) {
    message(j, hop) = nodes_[j].prepare_message();
  }
  [[nodiscard]] bool sent(std::size_t j, const sim::Hop& hop) {
    const std::optional<Message>& msg = message(j, hop);
    return msg && !msg->empty();
  }

  void clear_inboxes() {
    for (std::vector<Message>& inbox : inbox_) inbox.clear();
  }
  // ddcverify: hotpath
  void deliver(std::size_t from, std::size_t to, const sim::Hop& hop) {
    inbox_[to].push_back(std::move(*message(from, hop)));
  }
  /// A message decoded off the wire.
  void deliver(std::size_t to, Message&& msg) {
    inbox_[to].push_back(std::move(msg));
  }
  void seal_inboxes() {}

  // ddcverify: hotpath
  void absorb(const sim::RoundPlan& plan, std::span<const sim::NodeId> owned,
              exec::ThreadPool* pool) {
    exec::parallel_for(pool, nodes_.size(), [&](std::size_t j) {
      if (plan.alive(owned[j]) && !inbox_[j].empty()) {
        nodes_[j].absorb(std::move(inbox_[j]));
      }
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
  std::vector<std::optional<Message>> replies_;
  std::vector<std::optional<Message>> outbox_;
  std::vector<std::vector<Message>> inbox_;
};

/// The whole network's state in flat pools:
///
///   * node state: a weight-quanta array (n × k int64), a packed summary
///     array (n × k × sd doubles) and a collection-count array;
///   * messages: an arena of 2n slots (slot i holds node i's forward,
///     slot n+i the reply addressed to node i), so the parallel prepare
///     writes disjoint slots with no allocation and no synchronization;
///   * inboxes: a CSR index over delivered slots, built by a stable
///     counting sort that keeps delivery order.
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
        slot_summaries_(2 * n_ * k_ * sd_, 0.0),
        inbox_counts_(n_, 0),
        inbox_offsets_(n_ + 1, 0) {
    DDC_EXPECTS(n_ >= 2);
    DDC_EXPECTS(k_ >= 1);
    DDC_EXPECTS(sd_ >= 1);
    for (sim::NodeId i = 0; i < n_; ++i) {
      weights_[i * k_] = protocol_.quanta_per_unit();
      protocol_.pack(initial_summary(i), &summaries_[i * k_ * sd_]);
    }
    deliveries_.reserve(2 * n_);
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
    const std::size_t slot = slot_of(hop);
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
  [[nodiscard]] bool sent(std::size_t /*j*/, const sim::Hop& hop) const {
    return slot_counts_[slot_of(hop)] > 0;
  }

  void clear_inboxes() { deliveries_.clear(); }
  // ddcverify: hotpath
  void deliver(std::size_t /*from*/, std::size_t to, const sim::Hop& hop) {
    deliveries_.emplace_back(to, slot_of(hop));
  }
  /// The inbox CSR: per receiver, slots in delivery order.
  void seal_inboxes() {
    std::fill(inbox_counts_.begin(), inbox_counts_.end(), std::size_t{0});
    for (const auto& [to, slot] : deliveries_) ++inbox_counts_[to];
    inbox_offsets_[0] = 0;
    for (sim::NodeId j = 0; j < n_; ++j) {
      inbox_offsets_[j + 1] = inbox_offsets_[j] + inbox_counts_[j];
    }
    inbox_slots_.resize(deliveries_.size());
    for (sim::NodeId j = 0; j < n_; ++j) inbox_counts_[j] = inbox_offsets_[j];
    for (const auto& [to, slot] : deliveries_) {
      inbox_slots_[inbox_counts_[to]++] = slot;
    }
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
            const std::size_t ib = inbox_offsets_[i];
            const std::size_t ie = inbox_offsets_[i + 1];
            if (!plan.alive(i) || ib == ie) continue;
            receive_on_pools(scratch_[chunk], i, ib, ie);
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

  [[nodiscard]] std::size_t slot_of(const sim::Hop& hop) const noexcept {
    return hop.leg == sim::Leg::forward ? hop.initiator : n_ + hop.initiator;
  }

  /// Gathers node i's rows, then its inbox slots' rows (receive's union
  /// order), into the chunk's scratch; the protocol receives on them
  /// and writes the result straight into the pools.
  void receive_on_pools(PoolScratch& s, sim::NodeId i, std::size_t ib,
                        std::size_t ie) {
    std::size_t m = counts_[i];
    for (std::size_t e = ib; e < ie; ++e) m += slot_counts_[inbox_slots_[e]];
    if (s.rows.size() < m * sd_) s.rows.resize(m * sd_);
    if (s.quanta.size() < m) s.quanta.resize(m);
    std::size_t filled = gather_rows(
        &weights_[i * k_], &summaries_[i * k_ * sd_], counts_[i], s, 0);
    for (std::size_t e = ib; e < ie; ++e) {
      const std::size_t slot = inbox_slots_[e];
      filled = gather_rows(&slot_weights_[slot * k_],
                           &slot_summaries_[slot * k_ * sd_],
                           slot_counts_[slot], s, filled);
    }
    const std::size_t count = protocol_.receive_rows(
        s, m, &summaries_[i * k_ * sd_], &weights_[i * k_]);
    DDC_ASSERT(count >= 1 && count <= k_);
    counts_[i] = static_cast<std::uint32_t>(count);
  }

  /// Appends `count` collections (quanta, then sd-wide summary rows) to
  /// the scratch at position `at`; returns the new fill.
  std::size_t gather_rows(const std::int64_t* quanta, const double* rows,
                          std::size_t count, PoolScratch& s,
                          std::size_t at) const {
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

  // Deliveries of a round and the CSR inbox built from them.
  std::vector<std::pair<sim::NodeId, std::size_t>> deliveries_;
  std::vector<std::size_t> inbox_counts_;
  std::vector<std::size_t> inbox_offsets_;
  std::vector<std::size_t> inbox_slots_;

  // Per parallel chunk: the pool receive's scratch, grown on first use.
  std::vector<PoolScratch> scratch_;
};

}  // namespace ddc::shard
