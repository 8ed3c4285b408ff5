// Scale-engine bindings for the classifier protocols.
//
// SoaRoundEngine (src/sim) is protocol-agnostic: it stores node state in
// flat pools and splits on them directly. This header supplies what it
// cannot know — how one protocol's summary embeds into a fixed number of
// doubles, how that protocol receives (on the packed rows for centroids,
// through a rehydrated scratch classifier for GM), and how per-node
// policy state (the GM EM restart stream) persists across rounds — plus
// the factories that assemble a ready-to-run engine from an EngineConfig:
//
//   auto engine = ddc::gossip::make_centroid_scale_engine(
//       ddc::sim::Topology::grid(1000, 1000, false), inputs, config);
//
// Packing is EXACT (doubles are copied bit-for-bit), which is what lets
// the golden equivalence suite demand bit-identical classifications
// between this engine and RoundRunner.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/matrix.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/sim/scale_engine.hpp>
#include <ddc/stats/gaussian.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::gossip {

/// SoA embedding of the centroid protocol (Algorithm 2): a summary is its
/// centroid, packed as d doubles. Because that row is a plain Euclidean
/// point, the whole receive runs on the engine's packed rows
/// (receive_rows) — no classifier is rehydrated, and a chunk's scratch
/// stops allocating once it has seen its largest inbox. The greedy
/// partition policy is stateless, so no per-node RNG pool is kept.
class CentroidScaleProtocol {
 public:
  using SummaryPolicy = summaries::CentroidPolicy;
  using Partition = partition::GreedyDistancePartition<SummaryPolicy>;
  using Classifier = core::GenericClassifier<SummaryPolicy, Partition>;
  using Summary = linalg::Vector;
  static constexpr bool has_node_rng = false;

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

  CentroidScaleProtocol(std::size_t dim, const sim::EngineConfig& config)
      : dim_(dim), config_(config) {
    DDC_EXPECTS(dim_ >= 1);
  }

  [[nodiscard]] std::size_t k() const noexcept { return config_.k; }
  [[nodiscard]] std::int64_t quanta_per_unit() const noexcept {
    return config_.quanta_per_unit;
  }
  [[nodiscard]] std::size_t summary_doubles() const noexcept { return dim_; }

  void pack(const Summary& summary, double* out) const {
    DDC_ASSERT(summary.dim() == dim_);
    std::copy_n(summary.data().data(), dim_, out);
  }

  [[nodiscard]] Summary unpack(const double* in) const {
    return linalg::Vector(std::vector<double>(in, in + dim_));
  }

  /// GenericClassifier::receive on packed rows, bit for bit: the m
  /// collections in s.rows / s.quanta (the receiver's own first, then its
  /// inbox in delivery order — receive's union order) go through the
  /// packed greedy partition and the shared grouping step
  /// (core::group_collections), and each group is merged with
  /// CentroidPolicy::merge_rows in group order. Writes the ≤ k result
  /// collections to out_rows (row-major, d each) / out_quanta, which must
  /// not alias s, and returns their count.
  // ddcverify: hotpath
  [[nodiscard]] std::size_t receive_rows(PoolScratch& s, std::size_t m,
                                         double* out_rows,
                                         std::int64_t* out_quanta) const {
    const std::size_t d = dim_;
    const std::size_t k = config_.k;
    const double* const rows = s.rows.data();
    const std::int64_t* const quanta = s.quanta.data();
    const auto row = [rows, d](std::size_t j) { return rows + j * d; };
    const auto weight = [quanta](std::size_t j) {
      return static_cast<double>(quanta[j]);
    };
    ++s.stats.receives;

    Partition::PackedWorkspace& p = s.partition;
    if (p.rows.size() < m * d) p.rows.resize(m * d);
    if (p.weights.size() < m) p.weights.resize(m);
    std::copy_n(rows, m * d, p.rows.data());
    for (std::size_t j = 0; j < m; ++j) p.weights[j] = weight(j);
    core::Grouping& groups = p.agglomeration.groups;
    const std::size_t count = core::group_collections(
        groups, m, k, s.seen, s.stats,
        [&] { return Partition::partition_rows(p, m, d, k); },
        [quanta](std::size_t j) { return quanta[j] == 1; },
        [&](std::size_t a, std::size_t b) {
          return linalg::kernels::dispatch_dim(d, [&](auto dd) {
            return linalg::kernels::distance2<dd()>(row(a), row(b), d);
          });
        });

    // Algorithm 1, line 11. A singleton group keeps its collection
    // unchanged, exactly as GenericClassifier::merge_groups does.
    for (std::size_t g = 0; g < count; ++g) {
      const std::vector<std::size_t>& group = groups[g];
      double* const out = out_rows + g * d;
      if (group.size() == 1) {
        std::copy_n(row(group.front()), d, out);
        out_quanta[g] = quanta[group.front()];
        continue;
      }
      std::int64_t total = 0;
      for (const std::size_t j : group) total += quanta[j];
      SummaryPolicy::merge_rows(
          group.size(), [&](std::size_t t) { return row(group[t]); },
          [&](std::size_t t) { return weight(group[t]); }, out, d);
      out_quanta[g] = total;
      s.stats.collections_merged += group.size();
    }
    return count;
  }

 private:
  std::size_t dim_;
  sim::EngineConfig config_;
};

/// SoA embedding of the GM protocol (Section 5): a summary is ⟨µ, Σ⟩,
/// packed as d + d² doubles (mean, then covariance row-major). The EM
/// partition policy carries each node's restart RNG, persisted in the
/// engine's per-node stream pool and swapped into the scratch classifier
/// around every receive — so node i's EM draws follow the same stream
/// the object engine's dedicated EmPartition instance would consume.
class GmScaleProtocol {
 public:
  using SummaryPolicy = summaries::GaussianPolicy;
  using Partition = partition::EmPartition;
  using Classifier = core::GenericClassifier<SummaryPolicy, Partition>;
  using Summary = stats::Gaussian;
  static constexpr bool has_node_rng = true;

  GmScaleProtocol(std::size_t dim, std::size_t num_nodes,
                  const sim::EngineConfig& config,
                  const em::ReductionOptions& reduction = {})
      : dim_(dim),
        num_nodes_(num_nodes),
        config_(config),
        reduction_(reduction) {
    DDC_EXPECTS(dim_ >= 1);
  }

  [[nodiscard]] std::size_t k() const noexcept { return config_.k; }
  [[nodiscard]] std::int64_t quanta_per_unit() const noexcept {
    return config_.quanta_per_unit;
  }
  [[nodiscard]] std::size_t summary_doubles() const noexcept {
    return dim_ + dim_ * dim_;
  }

  [[nodiscard]] Classifier make_scratch() const {
    // Seed value is irrelevant: the engine swaps the per-node stream in
    // before any draw happens.
    return Classifier(linalg::Vector(dim_),
                      partition::EmPartition(stats::Rng(0), reduction_),
                      node_options(config_, 0, num_nodes_));
  }

  /// Per-node restart stream — same derivation as make_gm_node, so the
  /// engines are interchangeable on a given seed.
  [[nodiscard]] stats::Rng initial_rng(sim::NodeId i) const {
    return stats::Rng::derive(config_.protocol_seed, i);
  }

  [[nodiscard]] static stats::Rng& node_rng(Classifier& classifier) {
    return classifier.partition_policy().rng();
  }

  void pack(const Summary& summary, double* out) const {
    DDC_ASSERT(summary.dim() == dim_);
    std::copy_n(summary.mean().data().data(), dim_, out);
    std::copy_n(summary.cov().data().data(), dim_ * dim_, out + dim_);
  }

  [[nodiscard]] Summary unpack(const double* in) const {
    linalg::Vector mean(std::vector<double>(in, in + dim_));
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

 private:
  std::size_t dim_;
  std::size_t num_nodes_;
  sim::EngineConfig config_;
  em::ReductionOptions reduction_;
};

/// Centroid network on the SoA scale engine (the 10⁵–10⁶ node backend).
/// Aux-vector tracking is not representable in the pools.
[[nodiscard]] inline sim::SoaRoundEngine<CentroidScaleProtocol>
make_centroid_scale_engine(sim::Topology topology,
                           const std::vector<linalg::Vector>& inputs,
                           const sim::EngineConfig& config = {}) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(!config.track_aux);
  CentroidScaleProtocol protocol(inputs.front().dim(), config);
  return sim::SoaRoundEngine<CentroidScaleProtocol>(
      std::move(topology), std::move(protocol), config.round_options(),
      [&inputs](sim::NodeId i) {
        return summaries::CentroidPolicy::val_to_summary(inputs[i]);
      });
}

/// GM network on the SoA scale engine (see make_centroid_scale_engine).
[[nodiscard]] inline sim::SoaRoundEngine<GmScaleProtocol>
make_gm_scale_engine(sim::Topology topology,
                     const std::vector<linalg::Vector>& inputs,
                     const sim::EngineConfig& config = {},
                     const em::ReductionOptions& reduction = {}) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(!config.track_aux);
  GmScaleProtocol protocol(inputs.front().dim(), inputs.size(), config,
                           reduction);
  return sim::SoaRoundEngine<GmScaleProtocol>(
      std::move(topology), std::move(protocol), config.round_options(),
      [&inputs](sim::NodeId i) {
        return summaries::GaussianPolicy::val_to_summary(inputs[i]);
      });
}

}  // namespace ddc::gossip
