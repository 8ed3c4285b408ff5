// Partition policies for the Gaussian-Mixture instantiation.
//
// The paper's GM algorithm makes its merge decisions by reducing the
// (≤ 2k)-component mixture a node holds after a receive down to k
// components with Expectation Maximization (Section 5.2). EmPartition is
// that policy; RunnallsPartition and NearestMeansPartition expose the
// greedy reducers as drop-in alternatives for the partition-strategy
// ablation bench.
#pragma once

#include <cstddef>
#include <vector>

#include <ddc/core/policy.hpp>
#include <ddc/em/mixture_reduction.hpp>
#include <ddc/stats/gaussian.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::partition {

/// PartitionPolicy: EM-based mixture reduction (paper Section 5.2): packs
/// the collections once and runs em::reduce_em_rows, the SoA engine's EM.
/// Stateful: owns the RNG used for restart seeding, so each node should
/// carry its own instance (constructed from its seed) to keep runs
/// deterministic, and scratch it reuses across calls.
class EmPartition {
 public:
  explicit EmPartition(stats::Rng rng, em::ReductionOptions options = {})
      : rng_(rng), options_(options) {}

  [[nodiscard]] core::Grouping partition(
      const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
      std::size_t k);

  [[nodiscard]] const em::ReductionOptions& options() const noexcept {
    return options_;
  }

  /// Wall-clock spent packing and inside reduce_em_rows, accumulated
  /// across partitions (two clock reads per call). Feeds `ddcsim --timing`.
  [[nodiscard]] double em_seconds() const noexcept { return em_seconds_; }

 private:
  stats::Rng rng_;
  em::ReductionOptions options_;
  double em_seconds_ = 0.0;
  std::vector<double> rows_;     // l × (d + d²) packed collections
  std::vector<double> weights_;  // their weights
  em::EmWorkspace workspace_;
};

/// PartitionPolicy: greedy Runnalls KL-bound pairwise merging.
struct RunnallsPartition {
  [[nodiscard]] core::Grouping partition(
      const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
      std::size_t k) const;
};

/// PartitionPolicy: greedy nearest-means pairwise merging — Algorithm 2's
/// heuristic applied to Gaussian summaries (covariance-blind).
struct NearestMeansPartition {
  [[nodiscard]] core::Grouping partition(
      const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
      std::size_t k) const;
};

}  // namespace ddc::partition
