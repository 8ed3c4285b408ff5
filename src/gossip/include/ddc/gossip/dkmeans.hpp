// Distributed k-means in the style of Datta, Giannella & Kargupta (SDM
// 2006) — the related-work comparator of the paper's Section 2.
//
// The nodes collectively *simulate centralized Lloyd iterations*: all
// nodes share the current centroid set; each Lloyd iteration assigns every
// node's value to its nearest centroid and computes the new centroids with
// one distributed-averaging (push-sum) run per iteration. As the paper
// notes, "these algorithms require multiple aggregation iterations, each
// similar in length to one complete run of our algorithm" — the
// abl_comparators bench makes that cost concrete.
//
// The implementation is lockstep-synchronous on the round runner: every
// Lloyd iteration occupies a fixed number of gossip rounds
// (`rounds_per_iteration`); all nodes count their own sends to agree on
// the boundary, which holds in crash-free round-based execution (the
// regime Datta et al. assume).
#pragma once

#include <cstdint>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/linalg/vector.hpp>

namespace ddc::gossip {

/// Wire format: one push-sum pair (Σ weight·value, Σ weight) per cluster,
/// tagged with the Lloyd iteration it belongs to.
struct DkmMessage {
  std::uint64_t iteration = 0;
  struct ClusterSum {
    linalg::Vector sum;
    double weight = 0.0;
  };
  std::vector<ClusterSum> clusters;

  [[nodiscard]] bool empty() const noexcept { return clusters.empty(); }
};

/// One endpoint of the distributed k-means protocol.
class DistributedKMeansNode {
 public:
  using Message = DkmMessage;

  /// All nodes must be constructed with the SAME initial centroids (the
  /// algorithm assumes a shared seed — e.g. broadcast by a base station).
  /// Requires ≥ 1 centroid, all matching the value's dimension, and
  /// rounds_per_iteration ≥ 1.
  DistributedKMeansNode(linalg::Vector value,
                        std::vector<linalg::Vector> initial_centroids,
                        std::size_t rounds_per_iteration);

  /// Split step: on an iteration boundary first commits the averaged
  /// centroids and re-assigns the local value; then ships half of the
  /// per-cluster accumulators.
  [[nodiscard]] Message prepare_message();

  /// Receive step: accumulates same-iteration cluster sums (stale or
  /// futuristic messages are impossible in lockstep execution and are
  /// dropped defensively otherwise).
  void absorb(std::vector<Message>&& batch);

  /// The node's current centroid estimates.
  [[nodiscard]] const std::vector<linalg::Vector>& centroids() const noexcept {
    return centroids_;
  }

  /// Completed Lloyd iterations.
  [[nodiscard]] std::uint64_t iteration() const noexcept { return iteration_; }

  /// Index of the centroid nearest to this node's own value — the node's
  /// current class.
  [[nodiscard]] std::size_t own_cluster() const;

 private:
  void start_iteration();
  void commit_iteration();

  linalg::Vector value_;
  std::vector<linalg::Vector> centroids_;
  std::size_t rounds_per_iteration_;

  std::uint64_t iteration_ = 0;
  std::size_t sends_this_iteration_ = 0;
  /// Push-sum accumulators for the running iteration.
  std::vector<DkmMessage::ClusterSum> accumulators_;
};

}  // namespace ddc::gossip
