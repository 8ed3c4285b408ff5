// SoA (pool storage) bindings for the classifier protocols.
//
// shard::ShardEngine's pool storage (shard/node_storage.hpp) is
// protocol-agnostic: it stores node state in flat pools and splits on
// them directly. This header supplies what it cannot know — how one
// protocol's summary embeds into a fixed number of doubles, and how that
// protocol partitions and merges the packed rows the storage gathers
// (PoolReceive::receive_rows, Algorithm 1's receive bit for bit, is
// written once for both) — plus the factories that assemble a
// ready-to-run one-shard pool engine from an EngineConfig:
//
//   auto engine = ddc::gossip::make_centroid_scale_engine(
//       ddc::sim::Topology::grid(1000, 1000, false), inputs, config);
//
// Packing is EXACT (doubles are copied bit-for-bit), and the receives
// run the object storage's own packed pieces (the centroid partition and
// merge rows, em::reduce_em_rows and stats::moment_match_rows for GM),
// which is what lets the golden equivalence suite demand bit-identical
// classifications between pool and object storage (shard/factories.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/common/timing.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/matrix.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/stats/gaussian.hpp>

namespace ddc::gossip {

/// What both pool bindings share: the dimension, the config, and
/// Algorithm 1's receive on packed rows. The `Binding` deriving from it
/// supplies summary_doubles() (sd, whose first dim doubles place a
/// summary), a PoolScratch, grouping(s) (the core::Grouping partition
/// fills), partition(s, m) (groups the m gathered rows, returns their
/// count) and merge(s, group, out) (writes a group's merged row).
template <typename Binding>
class PoolReceive {
 public:
  PoolReceive(std::size_t dim, const sim::EngineConfig& config)
      : dim_(dim), config_(config) {
    DDC_EXPECTS(dim_ >= 1);
  }

  [[nodiscard]] std::size_t k() const noexcept { return config_.k; }
  [[nodiscard]] std::int64_t quanta_per_unit() const noexcept {
    return config_.quanta_per_unit;
  }

  /// GenericClassifier::receive on packed rows, bit for bit: the m
  /// collections in s.rows / s.quanta (the receiver's own first, then its
  /// inbox in delivery order — receive's union order) go through the
  /// binding's partition and the shared grouping step
  /// (core::group_collections; re-home distance: distance2 on each row's
  /// first dim doubles). A singleton group keeps its row and quanta
  /// verbatim, exactly as GenericClassifier::merge_groups does; a larger
  /// one is merged by the binding in group order. Writes the ≤ k result
  /// collections to out_rows (row-major, sd each) / out_quanta, which
  /// must not alias s, and returns their count.
  // ddcverify: hotpath
  template <typename Scratch>
  [[nodiscard]] std::size_t receive_rows(Scratch& s, std::size_t m,
                                         double* out_rows,
                                         std::int64_t* out_quanta) const {
    const Binding& binding = static_cast<const Binding&>(*this);
    const std::size_t sd = binding.summary_doubles();
    const double* const rows = s.rows.data();
    const std::int64_t* const quanta = s.quanta.data();
    const auto row = [rows, sd](std::size_t j) { return rows + j * sd; };
    ++s.stats.receives;

    core::Grouping& groups = Binding::grouping(s);
    const std::size_t count = core::group_collections(
        groups, m, config_.k, s.seen, s.stats,
        [&] { return binding.partition(s, m); },
        [quanta](std::size_t j) { return quanta[j] == 1; },
        [&](std::size_t a, std::size_t b) {
          return linalg::kernels::dispatch_dim(dim_, [&](auto dd) {
            return linalg::kernels::distance2<dd()>(row(a), row(b), dim_);
          });
        });

    // Algorithm 1, line 11.
    for (std::size_t g = 0; g < count; ++g) {
      const std::vector<std::size_t>& group = groups[g];
      double* const out = out_rows + g * sd;
      if (group.size() == 1) {
        std::copy_n(row(group.front()), sd, out);
        out_quanta[g] = quanta[group.front()];
        continue;
      }
      std::int64_t total = 0;
      for (const std::size_t j : group) total += quanta[j];
      binding.merge(s, group, out);
      out_quanta[g] = total;
      s.stats.collections_merged += group.size();
    }
    return count;
  }

 protected:
  std::size_t dim_;
  sim::EngineConfig config_;
};

/// SoA embedding of the centroid protocol (Algorithm 2): a summary is its
/// centroid, packed as d doubles. That row is a plain Euclidean point, so
/// the partition itself runs on the packed rows too, and a chunk's
/// scratch stops allocating once it has seen its largest inbox.
class CentroidScaleProtocol : public PoolReceive<CentroidScaleProtocol> {
 public:
  using SummaryPolicy = summaries::CentroidPolicy;
  using Partition = partition::GreedyDistancePartition<SummaryPolicy>;
  using Classifier = core::GenericClassifier<SummaryPolicy, Partition>;
  using Summary = linalg::Vector;

  /// One parallel chunk's scratch for receive_rows. The engine gathers a
  /// receiver's collections into `rows` / `quanta`; everything else is
  /// the receive's own working memory. Buffers only grow. Cache-line
  /// aligned: chunks on different threads update their stats on every
  /// receive, and must not share a line.
  struct alignas(64) PoolScratch {
    std::vector<double> rows;          // m × d gathered summaries
    std::vector<std::int64_t> quanta;  // their weights
    Partition::PackedWorkspace partition;
    std::vector<bool> seen;  // is_valid_grouping's marks
    core::ClassifierStats stats;
  };

  using PoolReceive::PoolReceive;

  [[nodiscard]] std::size_t summary_doubles() const noexcept { return dim_; }

  void pack(const Summary& summary, double* out) const {
    DDC_ASSERT(summary.dim() == dim_);
    std::copy_n(summary.data().data(), dim_, out);
  }

  [[nodiscard]] Summary unpack(const double* in) const {
    return linalg::Vector(std::span<const double>(in, dim_));
  }

  [[nodiscard]] static core::Grouping& grouping(PoolScratch& s) {
    return s.partition.agglomeration.groups;
  }
  /// The packed greedy partition, on a copy of the rows it may reorder.
  [[nodiscard]] std::size_t partition(PoolScratch& s, std::size_t m) const {
    Partition::PackedWorkspace& p = s.partition;
    if (p.rows.size() < m * dim_) p.rows.resize(m * dim_);
    if (p.weights.size() < m) p.weights.resize(m);
    std::copy_n(s.rows.data(), m * dim_, p.rows.data());
    for (std::size_t j = 0; j < m; ++j) {
      p.weights[j] = static_cast<double>(s.quanta[j]);
    }
    return Partition::partition_rows(p, m, dim_, config_.k);
  }
  /// CentroidPolicy::merge_rows: the quanta-weighted mean.
  void merge(const PoolScratch& s, const std::vector<std::size_t>& group,
             double* out) const {
    SummaryPolicy::merge_rows(
        group.size(),
        [&](std::size_t t) { return s.rows.data() + group[t] * dim_; },
        [&](std::size_t t) { return static_cast<double>(s.quanta[group[t]]); },
        out, dim_);
  }
};

/// SoA embedding of the GM protocol (Section 5): a summary is ⟨µ, Σ⟩,
/// packed as d + d² doubles (mean, then covariance row-major).
/// em::reduce_em_rows (the EM EmPartition::partition runs) partitions the
/// gathered rows in a workspace the chunk reuses, and each group is
/// moment-matched straight into the pools. No Gaussian is built.
class GmScaleProtocol : public PoolReceive<GmScaleProtocol> {
 public:
  using SummaryPolicy = summaries::GaussianPolicy;
  using Partition = partition::EmPartition;
  using Classifier = core::GenericClassifier<SummaryPolicy, Partition>;
  using Summary = stats::Gaussian;

  /// The EM options of every receive — make_gm_node's default. A single
  /// restart is seeded by the maximin traversal and draws no random
  /// numbers, so the pool receive passes no RNG.
  static constexpr em::ReductionOptions kReduction{};
  static_assert(kReduction.restarts == 1,
                "extra EM restarts draw from a per-node stream");

  /// One parallel chunk's scratch for receive_rows (see
  /// CentroidScaleProtocol::PoolScratch).
  struct alignas(64) PoolScratch {
    std::vector<double> rows;          // m × (d + d²) gathered summaries
    std::vector<std::int64_t> quanta;  // their weights
    std::vector<double> weights;       // the quanta as EM weights
    em::EmWorkspace em;
    core::Grouping groups;
    std::vector<bool> seen;  // is_valid_grouping's marks
    core::ClassifierStats stats;
    double em_seconds = 0.0;  // EmPartition::em_seconds' counterpart
  };

  using PoolReceive::PoolReceive;

  [[nodiscard]] std::size_t summary_doubles() const noexcept {
    return dim_ + dim_ * dim_;
  }

  void pack(const Summary& summary, double* out) const {
    DDC_ASSERT(summary.dim() == dim_);
    std::copy_n(summary.mean().data().data(), dim_, out);
    std::copy_n(summary.cov().data().data(), dim_ * dim_, out + dim_);
  }

  [[nodiscard]] Summary unpack(const double* in) const {
    linalg::Vector mean(std::span<const double>(in, dim_));
    linalg::Matrix cov(dim_, dim_);
    for (std::size_t r = 0; r < dim_; ++r) {
      for (std::size_t c = 0; c < dim_; ++c) {
        cov(r, c) = in[dim_ + r * dim_ + c];
      }
    }
    // A packed covariance is bitwise symmetric, so the constructor's
    // symmetrize pass ((a+a)/2 per entry) reproduces it exactly — the
    // round-trip stays bit-identical.
    return stats::Gaussian(std::move(mean), std::move(cov));
  }

  [[nodiscard]] static core::Grouping& grouping(PoolScratch& s) {
    return s.groups;
  }
  /// EmPartition::partition on the rows: em::reduce_em_rows, timed.
  [[nodiscard]] std::size_t partition(PoolScratch& s, std::size_t m) const {
    s.weights.assign(s.quanta.data(), s.quanta.data() + m);
    std::size_t reduced = 0;
    timed_phase(s.em_seconds, [&] {
      reduced = em::reduce_em_rows(s.rows.data(), s.weights.data(), m, dim_,
                                   config_.k, s.em, s.groups, nullptr,
                                   kReduction)
                    .groups;
    });
    return reduced;
  }
  /// GaussianPolicy::merge_set: moment matching over the group's EM
  /// views of its rows.
  void merge(PoolScratch& s, const std::vector<std::size_t>& group,
             double* out) const {
    for (std::size_t t = 0; t < group.size(); ++t) {
      const std::size_t j = group[t];
      s.em.parts[t] = {s.weights[j], s.em.means.data() + j * dim_,
                       s.em.covs.data() + j * dim_ * dim_};
    }
    stats::moment_match_rows({s.em.parts.data(), group.size()}, out,
                             out + dim_, s.em.scratch.data(), dim_);
    stats::symmetrize_checked(out + dim_, dim_);
  }
};

/// Centroid network on the SoA engine: the one-shard ShardEngine over
/// pool storage (the 10⁵–10⁶ node backend). Aux-vector tracking is not
/// representable in the pools.
[[nodiscard]] inline shard::ShardEngine<CentroidScaleProtocol>
make_centroid_scale_engine(sim::Topology topology,
                           const std::vector<linalg::Vector>& inputs,
                           const sim::EngineConfig& config = {}) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(!config.track_aux);
  shard::ShardMap map(topology.num_nodes(), 1);
  return shard::ShardEngine<CentroidScaleProtocol>(
      std::move(topology), std::move(map),
      CentroidScaleProtocol(inputs.front().dim(), config),
      config.round_options(), [&inputs](sim::NodeId i) {
        return summaries::CentroidPolicy::val_to_summary(inputs[i]);
      });
}

/// GM network on the SoA engine (see make_centroid_scale_engine).
[[nodiscard]] inline shard::ShardEngine<GmScaleProtocol> make_gm_scale_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {}) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(!config.track_aux);
  shard::ShardMap map(topology.num_nodes(), 1);
  return shard::ShardEngine<GmScaleProtocol>(
      std::move(topology), std::move(map),
      GmScaleProtocol(inputs.front().dim(), config), config.round_options(),
      [&inputs](sim::NodeId i) {
        return summaries::GaussianPolicy::val_to_summary(inputs[i]);
      });
}

}  // namespace ddc::gossip
