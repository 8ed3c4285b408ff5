// Struct-of-arrays round engine — the 10⁵–10⁶ node simulation backend.
//
// The object engine (one-shard shard::ShardEngine) keeps one protocol
// object per node: a Classification with heap-allocated summaries,
// per-node inboxes and option structs. At a million nodes that is
// dominated by pointer chasing and allocator metadata. SoaRoundEngine
// stores the SAME state in flat pools —
//
//   * node state: a weight-quanta array (n × k int64), a packed-summary
//     array (n × k × sd doubles, sd = doubles per summary) and a
//     collection-count array;
//   * in-flight messages: a fixed-slot arena of 2n message slots (slot i
//     holds node i's outgoing gossip, slot n+i holds the reply addressed
//     to node i), so the parallel prepare phase writes disjoint slots
//     with no allocation and no synchronization;
//   * inboxes: a CSR index over delivered slots, built by a stable
//     counting sort that preserves delivery order.
//
// The round schedule — selection, reply requests, per-node split order,
// the delivery walk with its loss verdicts, crash draws — is the shared
// sim::RoundPlan that the object engine runs too (round_plan.hpp); this
// engine keeps only the pools:
//
//   1. plan     (parallel)    RoundPlan::plan; only its draws are serial
//   2. prepare  (parallel)    splits on the pools into the slot arena
//   3. deliver  (sequential)  RoundPlan's walk, then the inbox CSR build
//   4. absorb   (parallel)    per receiver: union inbox slots, one receive
//   5. crash    (sequential)  RoundPlan::end_round
//
// Both parallel phases work on the pools, for every protocol. Prepare
// halves weights in place (core::Weight's half / remainder, 1-quantum
// collections stay home) and copies summary doubles straight into the
// slot arena. Absorb gathers a receiver's rows, then its inbox slots'
// rows, into a per-chunk scratch and hands them to the protocol's
// receive_rows, which runs Algorithm 1's receive — the protocol's
// partition, the shared grouping step (core::group_collections) and its
// merge, the same functions GenericClassifier runs — and writes the
// result straight back into the pools.
// Bit-identity with the object engine is pinned by tests, not assumed:
// tests/sim/soa_pool_receive_test.cpp compares each binding's
// receive_rows with GenericClassifier::receive on randomized inputs
// (coarse quanta, exact ties), and tests/sim/scale_equivalence_test.cpp
// compares whole runs by digest against the object engine for both
// protocols, including coarse-quanta cells in which one-quantum re-homes
// fire.
//
// Deliberate non-features: no TraceRecorder (a per-event log defeats the
// point at 10⁶ nodes — use the object engine to trace) and no aux-vector
// tracking (O(n) per collection). Round mode only; the async engine's
// event heap is inherently per-node and stays on AsyncRunner.
//
// The Protocol parameter describes how one protocol's node state embeds
// into the pools (see ddc/gossip/scale.hpp for the centroid and GM
// bindings):
//
//   using Summary = ...;               // the protocol's summary type
//   std::size_t k();                   // max collections per node
//   std::int64_t quanta_per_unit();
//   std::size_t summary_doubles();     // sd: packed doubles per summary
//   void pack(const Summary&, double* out);
//   Summary unpack(const double* in);  // exact round-trip with pack
//   struct PoolScratch { std::vector<double> rows;             // m × sd
//                        std::vector<std::int64_t> quanta;     // m
//                        core::ClassifierStats stats;
//                        double em_seconds;  // optional
//                        ... };
//   std::size_t receive_rows(PoolScratch&, std::size_t m,
//                            double* out_rows, std::int64_t* out_quanta);
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/topology.hpp>

namespace ddc::sim {

template <typename Protocol>
class SoaRoundEngine {
 public:
  using Summary = typename Protocol::Summary;
  using Message = core::Classification<Summary>;

  /// Builds the engine over `topology` with node i's initial state being
  /// one full-weight collection of summary `initial_summary(i)`.
  /// `initial_summary` is consumed during construction only.
  template <typename InitSummary>
  SoaRoundEngine(Topology topology, Protocol protocol,
                 RoundRunnerOptions options, InitSummary&& initial_summary)
      : topology_(std::move(topology)),
        protocol_(std::move(protocol)),
        n_(topology_.num_nodes()),
        k_(protocol_.k()),
        sd_(protocol_.summary_doubles()),
        plan_(options, n_),
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
    for (NodeId i = 0; i < n_; ++i) {
      weights_[i * k_] = protocol_.quanta_per_unit();
      protocol_.pack(initial_summary(i), &summaries_[i * k_ * sd_]);
    }
    pool_ = exec::ThreadPool::for_parallelism(options.parallelism);
    pool_scratch_.resize(exec::parallel_chunk_count(pool_.get(), n_));
    deliveries_.reserve(2 * n_);
  }

  /// Executes one round — the same RoundPlan schedule as
  /// shard::ShardEngine::run_round.
  // ddcverify: hotpath
  void run_round() {
    timed_phase(timings_.plan_seconds,
                [&] { plan_.plan(topology_, pool_.get()); });
    timed_phase(timings_.prepare_seconds, [&] { prepare_messages(); });
    timed_phase(timings_.deliver_seconds, [&] { deliver_messages(); });
    timed_phase(timings_.absorb_seconds, [&] { absorb_inboxes(); });
    plan_.end_round();
  }

  void run_rounds(std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) run_round();
  }

  [[nodiscard]] std::size_t round() const noexcept { return plan_.round(); }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const RoundPhaseTimings& timings() const noexcept {
    return timings_;
  }

  [[nodiscard]] bool alive(NodeId i) const { return plan_.alive(i); }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return plan_.alive_count();
  }

  /// Node i's classification, rehydrated from the pools. O(k) — intended
  /// for probes, not per-round-per-node loops (use
  /// for_each_classification for sweeps).
  [[nodiscard]] Message classification_of(NodeId i) const {
    DDC_EXPECTS(i < n_);
    Message result;
    unpack_node(i, result);
    return result;
  }

  /// Streams every node's classification through `fn(i, classification)`
  /// in node order, reusing ONE scratch classification — no per-node
  /// history is ever materialized. The reference passed to `fn` is
  /// invalidated by the next iteration.
  template <typename Fn>
  void for_each_classification(Fn&& fn) const {
    Message scratch;
    for (NodeId i = 0; i < n_; ++i) {
      unpack_node(i, scratch);
      fn(i, static_cast<const Message&>(scratch));
    }
  }

  /// Sum of weight quanta held by all nodes, straight from the weight
  /// pool (the conservation audit at scale — no unpacking involved).
  [[nodiscard]] std::int64_t total_quanta() const noexcept {
    std::int64_t acc = 0;
    for (NodeId i = 0; i < n_; ++i) {
      for (std::size_t c = 0; c < counts_[i]; ++c) acc += weights_[i * k_ + c];
    }
    return acc;
  }

  /// Wall-clock spent in the partition and the one-quantum re-home,
  /// summed over chunks (equals the per-node sum the object engine
  /// reports, since every receive runs on exactly one chunk's scratch).
  [[nodiscard]] double partition_seconds() const noexcept {
    double acc = 0.0;
    for (const PoolScratch& s : pool_scratch_) acc += s.stats.partition_seconds;
    return acc;
  }

  /// Wall-clock inside EM, summed over chunks; 0.0 for protocols without
  /// an EM stage (whose PoolScratch has no em_seconds).
  [[nodiscard]] double em_seconds() const noexcept {
    double acc = 0.0;
    for (const PoolScratch& s : pool_scratch_) {
      if constexpr (requires { s.em_seconds; }) acc += s.em_seconds;
    }
    return acc;
  }

 private:
  using PoolScratch = typename Protocol::PoolScratch;

  /// Phase 2 — parallel splits on the pools into the slot arena, each
  /// node in the plan's pinned split order; every message has its own
  /// arena slot, so parallel splits are disjoint.
  void prepare_messages() {
    std::fill(slot_counts_.begin(), slot_counts_.end(), std::uint32_t{0});
    exec::parallel_for_chunks(
        pool_.get(), n_, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (NodeId j = begin; j < end; ++j) {
            plan_.for_each_split(
                j, [&](const Hop& hop) { split_into(j, plan_.slot(hop)); });
          }
        });
  }

  /// Phase 3 — the plan's delivery walk over the non-empty slots, then
  /// the inbox CSR via stable counting sort: per receiver, slots appear
  /// in delivery order, like the object engine's inbox push_backs.
  void deliver_messages() {
    deliveries_.clear();
    plan_.for_each_hop(
        [&](const Hop& hop) { return slot_counts_[plan_.slot(hop)] > 0; },
        [&](const Hop& hop, Fate fate) {
          if (fate == Fate::delivered) {
            deliveries_.emplace_back(hop.to, plan_.slot(hop));
          }
        });
    std::fill(inbox_counts_.begin(), inbox_counts_.end(), std::size_t{0});
    for (const auto& [to, slot] : deliveries_) ++inbox_counts_[to];
    inbox_offsets_[0] = 0;
    for (NodeId j = 0; j < n_; ++j) {
      inbox_offsets_[j + 1] = inbox_offsets_[j] + inbox_counts_[j];
    }
    inbox_slots_.resize(deliveries_.size());
    for (NodeId j = 0; j < n_; ++j) inbox_counts_[j] = inbox_offsets_[j];
    for (const auto& [to, slot] : deliveries_) {
      inbox_slots_[inbox_counts_[to]++] = slot;
    }
  }

  /// Phase 4 — parallel batch absorption: per receiver, union the inbox
  /// slots in delivery order with its own collections, run one receive.
  void absorb_inboxes() {
    exec::parallel_for_chunks(
        pool_.get(), n_,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          for (NodeId i = begin; i < end; ++i) {
            const std::size_t ib = inbox_offsets_[i];
            const std::size_t ie = inbox_offsets_[i + 1];
            if (!plan_.alive(i) || ib == ie) continue;
            receive_on_pools(pool_scratch_[chunk], i, ib, ie);
          }
        });
  }

  /// Gathers node i's rows, then its inbox slots' rows, into the chunk's
  /// scratch (receive's union order) and lets the protocol receive on
  /// them, writing the result straight into the pools.
  void receive_on_pools(PoolScratch& s, NodeId i, std::size_t ib,
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

  /// GenericClassifier::split on the pools: halves each of node j's
  /// collections in place and writes the sent halves (summary doubles
  /// copied verbatim) into arena slot `slot`. A 1-quantum collection
  /// stays home whole. Only the owning prepare task writes a given slot,
  /// so parallel splits are disjoint.
  void split_into(NodeId j, std::size_t slot) {
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

  /// Rebuilds node i's classification into `out` (clearing it first).
  void unpack_node(NodeId i, Message& out) const {
    out.collections().clear();
    for (std::size_t c = 0; c < counts_[i]; ++c) {
      out.add(core::Collection<Summary>{
          protocol_.unpack(&summaries_[(i * k_ + c) * sd_]),
          core::Weight::from_quanta(weights_[i * k_ + c]),
          {}});
    }
  }

  Topology topology_;
  Protocol protocol_;
  std::size_t n_;
  std::size_t k_;
  std::size_t sd_;
  RoundPlan plan_;

  // Node-state pools. counts_[i] collections live at rows i·k … i·k+c.
  std::vector<std::uint32_t> counts_;
  std::vector<std::int64_t> weights_;
  std::vector<double> summaries_;

  // Message slot arena: slot i = node i's outgoing gossip, slot n+i =
  // the reply addressed to node i. Parallel writes hit disjoint slots.
  std::vector<std::uint32_t> slot_counts_;
  std::vector<std::int64_t> slot_weights_;
  std::vector<double> slot_summaries_;

  // Deliveries of a round and the CSR inbox built from them.
  std::vector<std::pair<NodeId, std::size_t>> deliveries_;
  std::vector<std::size_t> inbox_counts_;
  std::vector<std::size_t> inbox_offsets_;
  std::vector<std::size_t> inbox_slots_;

  // Per parallel chunk: the pool receive's scratch. Its stats accumulate
  // the work of every node it served (see partition_seconds()).
  std::vector<PoolScratch> pool_scratch_;

  std::unique_ptr<exec::ThreadPool> pool_;
  RoundPhaseTimings timings_;
};

}  // namespace ddc::sim
