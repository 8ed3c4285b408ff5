// Classifier node: binds the generic Algorithm 1 engine to the simulation
// runners' GossipNode interface.
#pragma once

#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/partition/em_partition.hpp>
#include <ddc/partition/greedy.hpp>
#include <ddc/summaries/centroid.hpp>
#include <ddc/summaries/gaussian_summary.hpp>

namespace ddc::gossip {

/// One protocol endpoint running the generic distributed classification
/// algorithm. `prepare_message()` is Algorithm 1's periodic split/send;
/// `absorb()` unions a batch of received classifications and runs a single
/// partition over the whole set, matching the paper's simulation
/// methodology ("accumulate all the received collections and run EM once
/// for the entire set", Section 5.3).
template <core::SummaryPolicy SP,
          core::PartitionPolicy<typename SP::Summary> PP>
class ClassifierNode {
 public:
  using Value = typename SP::Value;
  using Summary = typename SP::Summary;
  using Message = core::Classification<Summary>;

  ClassifierNode(const Value& input, PP partition_policy,
                 core::ClassifierOptions options)
      : classifier_(input, std::move(partition_policy), options) {}

  /// Split step (may return an empty message when every collection holds a
  /// single quantum; the runners skip delivering those).
  [[nodiscard]] Message prepare_message() { return classifier_.split(); }

  /// Receive step over a whole batch: one union, one partition. The
  /// messages are moved from; the vector stays the caller's to reuse.
  void absorb(std::vector<Message>&& batch) {
    DDC_EXPECTS(!batch.empty());
    Message combined = std::move(batch.front());
    for (std::size_t m = 1; m < batch.size(); ++m) {
      combined.absorb(std::move(batch[m]));
    }
    classifier_.receive(std::move(combined));
  }

  /// The node's current classification.
  [[nodiscard]] const core::Classification<Summary>& classification() const {
    return classifier_.classification();
  }

  [[nodiscard]] const core::GenericClassifier<SP, PP>& classifier() const {
    return classifier_;
  }

 private:
  core::GenericClassifier<SP, PP> classifier_;
};

/// The paper's GM algorithm: Gaussian summaries + EM partitioning.
using GmNode = ClassifierNode<summaries::GaussianPolicy, partition::EmPartition>;

/// The paper's in-line centroids example: Algorithm 2 end-to-end.
using CentroidNode =
    ClassifierNode<summaries::CentroidPolicy,
                   partition::GreedyDistancePartition<summaries::CentroidPolicy>>;

/// Gaussian summaries with the covariance-blind nearest-means partition
/// (ablation).
using GmNearestMeansNode =
    ClassifierNode<summaries::GaussianPolicy, partition::NearestMeansPartition>;

/// Gaussian summaries with Runnalls greedy reduction (ablation).
using GmRunnallsNode =
    ClassifierNode<summaries::GaussianPolicy, partition::RunnallsPartition>;

}  // namespace ddc::gossip
