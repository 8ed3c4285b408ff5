// Fair gossip-target selection, shared by RoundPlan (every round
// engine) and AsyncRunner.
//
// Both selection policies satisfy the paper's fairness requirement (each
// neighbor chosen infinitely often): round-robin deterministically,
// uniform-random with probability 1. The selector owns the per-node
// round-robin cursors (4 B per node, allocated only for round-robin);
// random draws come from the caller's environment RNG so the engine
// keeps control of its draw ordering. A uniform pick
// is three steps — count the eligible neighbors, draw an index, map it to
// a neighbor — exposed separately so RoundPlan can run the first and last
// for all nodes in parallel and keep only the draws sequential.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// Picks gossip targets for the nodes of one topology. Stateful only for
/// round-robin (one cursor per node; uniform selection holds none).
class NeighborSelector {
 public:
  NeighborSelector(NeighborSelection selection, std::size_t num_nodes)
      : selection_(selection),
        rr_position_(draws() ? 0 : num_nodes, 0) {}

  /// True when pick() draws from its RNG (uniform_random); round-robin
  /// consumes no randomness.
  [[nodiscard]] bool draws() const noexcept {
    return selection_ == NeighborSelection::uniform_random;
  }

  /// Picks node i's gossip target among its out-neighbors. When `avoid`
  /// is set, dead neighbors (per `alive`) are skipped; returns nullopt
  /// when every eligible neighbor is dead. Uniform selection is
  /// eligible(), one draw of a uniform index below that count (no draw
  /// when it is 0), then nth_eligible(); round-robin is next_in_turn().
  /// Runs for every live node in every round, so it never allocates.
  // ddcverify: hotpath
  [[nodiscard]] std::optional<NodeId> pick(const Topology& topology, NodeId i,
                                           const std::vector<bool>& alive,
                                           bool avoid, stats::Rng& rng) {
    if (!draws()) return next_in_turn(topology, i, alive, avoid);
    const std::size_t count = eligible(topology, i, alive, avoid);
    if (count == 0) return std::nullopt;
    return nth_eligible(topology, i, alive, avoid, rng.uniform_index(count));
  }

  /// How many of node i's neighbors a uniform pick chooses among: its
  /// degree, or with `avoid` its live neighbors. O(1) without `avoid`.
  // ddcverify: hotpath
  [[nodiscard]] std::size_t eligible(const Topology& topology, NodeId i,
                                     const std::vector<bool>& alive,
                                     bool avoid) const {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    DDC_ASSERT(!nbrs.empty());
    if (!avoid) return nbrs.size();
    std::size_t live = 0;
    for (const NodeId t : nbrs) live += alive[t] ? 1 : 0;
    return live;
  }

  /// The nth (0-based) of node i's eligible neighbors, n < eligible():
  /// an index into the neighbor list without `avoid`, else a walk over
  /// the live neighbors in place — the same target as indexing a
  /// filtered copy.
  // ddcverify: hotpath
  [[nodiscard]] NodeId nth_eligible(const Topology& topology, NodeId i,
                                    const std::vector<bool>& alive, bool avoid,
                                    std::size_t nth) const {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    DDC_ASSERT(nth < nbrs.size());
    if (!avoid) return nbrs[nth];
    for (const NodeId t : nbrs) {
      if (alive[t] && nth-- == 0) return t;
    }
    DDC_ASSERT(false);
    return nbrs.front();
  }

  /// Round-robin: node i's next neighbor in turn, advancing its cursor
  /// past dead ones when `avoid` is set (at most one lap); nullopt when
  /// the lap finds none. Touches only node i's cursor.
  // ddcverify: hotpath
  [[nodiscard]] std::optional<NodeId> next_in_turn(
      const Topology& topology, NodeId i, const std::vector<bool>& alive,
      bool avoid) {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    DDC_ASSERT(!nbrs.empty());
    for (std::size_t step = 0; step < nbrs.size(); ++step) {
      const NodeId target = nbrs[rr_position_[i] % nbrs.size()];
      rr_position_[i] =
          static_cast<std::uint32_t>((rr_position_[i] + 1) % nbrs.size());
      if (!avoid || alive[target]) return target;
    }
    return std::nullopt;
  }

 private:
  NeighborSelection selection_;
  // Node i's next position in its neighbor list (a degree is below n, so
  // 32 bits hold it); empty under uniform selection.
  std::vector<std::uint32_t> rr_position_;
};

}  // namespace ddc::sim
