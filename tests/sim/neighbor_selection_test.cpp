// NeighborSelector::pick against the allocating form it replaced.
//
// The selector used to filter the live neighbors into a fresh vector and
// index it with one uniform draw. It now counts the live neighbors, makes
// the same draw, and walks to that neighbor in place. The old form is
// kept here as the reference: on random alive masks over random graphs,
// for both selection policies and both crash-send policies, the two must
// return the same targets and leave the RNG in the same state.
#include <ddc/sim/neighbor_selection.hpp>

#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

/// The pre-rewrite selector, verbatim in behaviour.
class ReferenceSelector {
 public:
  ReferenceSelector(NeighborSelection selection, std::size_t num_nodes)
      : selection_(selection), rr_position_(num_nodes, 0) {}

  std::optional<NodeId> pick(const Topology& topology, NodeId i,
                             const std::vector<bool>& alive, bool avoid,
                             stats::Rng& rng) {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    if (selection_ == NeighborSelection::round_robin) {
      for (std::size_t step = 0; step < nbrs.size(); ++step) {
        const NodeId target = nbrs[rr_position_[i] % nbrs.size()];
        rr_position_[i] = (rr_position_[i] + 1) % nbrs.size();
        if (!avoid || alive[target]) return target;
      }
      return std::nullopt;
    }
    if (!avoid) return nbrs[rng.uniform_index(nbrs.size())];
    std::vector<NodeId> live;
    for (const NodeId t : nbrs) {
      if (alive[t]) live.push_back(t);
    }
    if (live.empty()) return std::nullopt;
    return live[rng.uniform_index(live.size())];
  }

 private:
  NeighborSelection selection_;
  std::vector<std::size_t> rr_position_;
};

TEST(NeighborSelector, PickMatchesAllocatingReference) {
  constexpr std::size_t kNodes = 60;
  stats::Rng setup(2024);
  std::size_t empty_picks = 0;
  for (const NeighborSelection selection :
       {NeighborSelection::uniform_random, NeighborSelection::round_robin}) {
    for (const bool avoid : {true, false}) {
      for (const double edge_p : {0.05, 0.2, 0.6}) {
        const Topology topology = Topology::erdos_renyi(kNodes, edge_p, setup);
        NeighborSelector selector(selection, kNodes);
        ReferenceSelector reference(selection, kNodes);
        stats::Rng rng(77);
        stats::Rng reference_rng(77);
        for (int round = 0; round < 40; ++round) {
          // Alive masks from all-dead to all-alive, so nodes with no
          // live neighbor occur as well as fully live neighborhoods.
          const double alive_p = static_cast<double>(round % 5) / 4.0;
          std::vector<bool> alive(kNodes);
          for (std::size_t i = 0; i < kNodes; ++i) {
            alive[i] = setup.bernoulli(alive_p);
          }
          for (NodeId i = 0; i < kNodes; ++i) {
            const std::optional<NodeId> got =
                selector.pick(topology, i, alive, avoid, rng);
            const std::optional<NodeId> want =
                reference.pick(topology, i, alive, avoid, reference_rng);
            ASSERT_EQ(got, want) << "node " << i << " round " << round;
            empty_picks += got ? 0 : 1;
          }
          // Same number of draws consumed: the streams stay in lockstep.
          ASSERT_EQ(rng.uniform_index(1u << 30),
                    reference_rng.uniform_index(1u << 30));
        }
      }
    }
  }
  EXPECT_GT(empty_picks, 0u);
}

}  // namespace
}  // namespace ddc::sim
