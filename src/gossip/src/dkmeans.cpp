#include <ddc/gossip/dkmeans.hpp>

#include <limits>

namespace ddc::gossip {

using linalg::Vector;

DistributedKMeansNode::DistributedKMeansNode(
    Vector value, std::vector<Vector> initial_centroids,
    std::size_t rounds_per_iteration)
    : value_(std::move(value)),
      centroids_(std::move(initial_centroids)),
      rounds_per_iteration_(rounds_per_iteration) {
  DDC_EXPECTS(!centroids_.empty());
  DDC_EXPECTS(rounds_per_iteration_ >= 1);
  for (const auto& c : centroids_) DDC_EXPECTS(c.dim() == value_.dim());
  start_iteration();
}

std::size_t DistributedKMeansNode::own_cluster() const {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    const double d = linalg::distance2(value_, centroids_[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

void DistributedKMeansNode::start_iteration() {
  // Fresh push-sum state: this node contributes weight 1 to its nearest
  // cluster's accumulator.
  accumulators_.assign(centroids_.size(),
                       DkmMessage::ClusterSum{Vector(value_.dim()), 0.0});
  const std::size_t mine = own_cluster();
  accumulators_[mine].sum = value_;
  accumulators_[mine].weight = 1.0;
  sends_this_iteration_ = 0;
}

void DistributedKMeansNode::commit_iteration() {
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    // A cluster this node heard no mass for keeps its previous centroid
    // (Lloyd's empty-cluster rule).
    if (accumulators_[c].weight > 0.0) {
      centroids_[c] = accumulators_[c].sum / accumulators_[c].weight;
    }
  }
  ++iteration_;
}

DkmMessage DistributedKMeansNode::prepare_message() {
  if (sends_this_iteration_ == rounds_per_iteration_) {
    // Iteration boundary: everyone reaches it in the same round because
    // every live node sends exactly once per round.
    commit_iteration();
    start_iteration();
  }
  ++sends_this_iteration_;

  DkmMessage out;
  out.iteration = iteration_;
  out.clusters.reserve(accumulators_.size());
  for (auto& acc : accumulators_) {
    out.clusters.push_back({acc.sum * 0.5, acc.weight * 0.5});
    acc.sum *= 0.5;
    acc.weight *= 0.5;
  }
  return out;
}

void DistributedKMeansNode::absorb(std::vector<DkmMessage>&& batch) {
  for (auto& msg : batch) {
    if (msg.iteration != iteration_ ||
        msg.clusters.size() != accumulators_.size()) {
      continue;  // stale/foreign message: impossible in lockstep, dropped
    }
    for (std::size_t c = 0; c < accumulators_.size(); ++c) {
      DDC_EXPECTS(msg.clusters[c].sum.dim() == value_.dim());
      accumulators_[c].sum += msg.clusters[c].sum;
      accumulators_[c].weight += msg.clusters[c].weight;
    }
  }
}

}  // namespace ddc::gossip
