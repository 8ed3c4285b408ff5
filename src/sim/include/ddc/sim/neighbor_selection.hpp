// Fair gossip-target selection, shared by the simulation runners and the
// networked node driver (src/net).
//
// Both selection policies satisfy the paper's fairness requirement (each
// neighbor chosen infinitely often): round-robin deterministically,
// uniform-random with probability 1. The selector owns the per-node
// round-robin cursors; random draws come from the caller's environment
// RNG so the engine keeps control of its draw ordering.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// Picks gossip targets for the nodes of one topology. Stateful only for
/// round-robin (one cursor per node).
class NeighborSelector {
 public:
  NeighborSelector(NeighborSelection selection, std::size_t num_nodes)
      : selection_(selection), rr_position_(num_nodes, 0) {}

  /// Picks node i's gossip target among its out-neighbors. When `avoid`
  /// is set, dead neighbors (per `alive`) are skipped; returns nullopt
  /// when every eligible neighbor is dead. Draws from `rng` only for
  /// uniform_random selection — round-robin consumes no randomness.
  /// Runs for every live node in every round, so it never allocates.
  // ddcverify: hotpath
  [[nodiscard]] std::optional<NodeId> pick(const Topology& topology, NodeId i,
                                           const std::vector<bool>& alive,
                                           bool avoid, stats::Rng& rng) {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    DDC_ASSERT(!nbrs.empty());
    switch (selection_) {
      case NeighborSelection::round_robin: {
        // Advance past dead neighbors (at most one lap).
        for (std::size_t step = 0; step < nbrs.size(); ++step) {
          const NodeId target = nbrs[rr_position_[i] % nbrs.size()];
          rr_position_[i] = (rr_position_[i] + 1) % nbrs.size();
          if (!avoid || alive[target]) return target;
        }
        return std::nullopt;
      }
      case NeighborSelection::uniform_random: {
        if (!avoid) return nbrs[rng.uniform_index(nbrs.size())];
        // A uniform index into the live neighbors, walked to in place:
        // the same draw and target as indexing a filtered copy.
        std::size_t live = 0;
        for (const NodeId t : nbrs) live += alive[t] ? 1 : 0;
        if (live == 0) return std::nullopt;
        std::size_t skip = rng.uniform_index(live);
        for (const NodeId t : nbrs) {
          if (alive[t] && skip-- == 0) return t;
        }
        break;
      }
    }
    DDC_ASSERT(false);
    return std::nullopt;
  }

 private:
  NeighborSelection selection_;
  std::vector<std::size_t> rr_position_;
};

}  // namespace ddc::sim
