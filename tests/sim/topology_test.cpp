#include <ddc/sim/topology.hpp>

#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>

namespace ddc::sim {
namespace {

TEST(Topology, CompleteGraphShape) {
  const Topology t = Topology::complete(5);
  EXPECT_EQ(t.num_nodes(), 5u);
  EXPECT_EQ(t.num_edges(), 20u);  // n(n−1) directed edges
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(t.neighbors(i).size(), 4u);
    EXPECT_FALSE(t.has_edge(i, i));
  }
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.diameter(), 1u);
}

TEST(Topology, RingShape) {
  const Topology t = Topology::ring(6);
  EXPECT_EQ(t.num_edges(), 12u);
  EXPECT_TRUE(t.has_edge(0, 5));
  EXPECT_TRUE(t.has_edge(5, 0));
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.diameter(), 3u);
}

TEST(Topology, TwoNodeRingHasNoDuplicateEdges) {
  const Topology t = Topology::ring(2);
  EXPECT_EQ(t.num_edges(), 2u);
}

TEST(Topology, DirectedRingIsStronglyConnectedOneWay) {
  const Topology t = Topology::directed_ring(4);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_FALSE(t.has_edge(1, 0));
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.diameter(), 3u);
}

TEST(Topology, LineShapeAndDiameter) {
  const Topology t = Topology::line(5);
  EXPECT_EQ(t.num_edges(), 8u);
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.diameter(), 4u);
}

TEST(Topology, StarCenterTouchesEverything) {
  const Topology t = Topology::star(6);
  EXPECT_EQ(t.neighbors(0).size(), 5u);
  for (NodeId i = 1; i < 6; ++i) EXPECT_EQ(t.neighbors(i).size(), 1u);
  EXPECT_EQ(t.diameter(), 2u);
}

TEST(Topology, GridShape) {
  const Topology t = Topology::grid(3, 4);
  EXPECT_EQ(t.num_nodes(), 12u);
  // Corner (0,0) has 2 neighbors; interior (1,1) has 4.
  EXPECT_EQ(t.neighbors(0).size(), 2u);
  EXPECT_EQ(t.neighbors(1 * 4 + 1).size(), 4u);
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.diameter(), 5u);  // (3−1) + (4−1)
}

TEST(Topology, TorusHasUniformDegree) {
  const Topology t = Topology::grid(4, 4, /*torus=*/true);
  for (NodeId i = 0; i < 16; ++i) EXPECT_EQ(t.neighbors(i).size(), 4u);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, RandomGeometricConnectedAndHasPositions) {
  stats::Rng rng(91);
  const Topology t = Topology::random_geometric(50, 0.35, rng);
  EXPECT_TRUE(t.is_connected());
  ASSERT_TRUE(t.positions().has_value());
  EXPECT_EQ(t.positions()->size(), 50u);
}

TEST(Topology, RandomGeometricImpossibleRadiusThrows) {
  stats::Rng rng(92);
  EXPECT_THROW((void)Topology::random_geometric(50, 1e-6, rng, 3), ConfigError);
}

TEST(Topology, ErdosRenyiConnected) {
  stats::Rng rng(93);
  const Topology t = Topology::erdos_renyi(40, 0.2, rng);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, FromEdgesDirected) {
  const Topology t = Topology::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_TRUE(t.is_connected());
  EXPECT_FALSE(t.has_edge(1, 0));
}

TEST(Topology, FromEdgesDetectsDisconnection) {
  const Topology t = Topology::from_edges(3, {{0, 1}, {1, 0}});
  EXPECT_FALSE(t.is_connected());
}

TEST(Topology, OneWayEdgeIsNotStronglyConnected) {
  const Topology t = Topology::from_edges(2, {{0, 1}});
  EXPECT_FALSE(t.is_connected());
}

TEST(Topology, RejectsSelfLoopsAndDuplicates) {
  EXPECT_THROW((void)Topology::from_edges(2, {{0, 0}}), ContractViolation);
  EXPECT_THROW((void)Topology::from_edges(2, {{0, 1}, {0, 1}}),
               ContractViolation);
  EXPECT_THROW((void)Topology::from_edges(2, {{0, 5}}), ContractViolation);
}

// Neighbor order is part of the Topology contract: the engines' round-robin
// cursors and uniform_index draws walk neighbors(i) positionally, so CSR
// compression must keep each node's edge-insertion order.
TEST(Topology, NeighborOrderMatchesInsertionOrder) {
  const Topology t = Topology::from_edges(4, {{0, 3}, {0, 1}, {0, 2}, {1, 0},
                                              {2, 0}, {3, 0}});
  const auto nbrs = t.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 3u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 2u);
}

// The historical all-pairs random-geometric construction, kept as the
// reference the grid-bucketed version must match edge for edge and
// order for order (same RNG consumption, same insertion sequence).
std::vector<std::vector<NodeId>> reference_rgg_adjacency(
    std::size_t n, double radius, stats::Rng& rng) {
  std::vector<std::pair<double, double>> pos(n);
  for (auto& p : pos) p = {rng.uniform(), rng.uniform()};
  const double r2 = radius * radius;
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      const double dx = pos[i].first - pos[j].first;
      const double dy = pos[i].second - pos[j].second;
      if (dx * dx + dy * dy <= r2) {
        out[i].push_back(j);
        out[j].push_back(i);
      }
    }
  }
  return out;
}

TEST(Topology, RandomGeometricMatchesAllPairsReference) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    for (const double radius : {0.18, 0.3, 0.55}) {
      stats::Rng bucketed_rng(seed);
      const Topology t = Topology::random_geometric(60, radius, bucketed_rng);
      // Replay the accepted draw: the reference consumes the same stream,
      // so the last 60 position pairs the Topology kept are regenerated by
      // rerunning every rejected attempt too.
      stats::Rng reference_rng(seed);
      std::vector<std::vector<NodeId>> want;
      while (true) {
        want = reference_rgg_adjacency(60, radius, reference_rng);
        // Connectivity of the undirected reference graph via BFS.
        std::vector<bool> seen(60, false);
        std::vector<NodeId> stack{0};
        seen[0] = true;
        std::size_t count = 1;
        while (!stack.empty()) {
          const NodeId u = stack.back();
          stack.pop_back();
          for (const NodeId v : want[u]) {
            if (!seen[v]) {
              seen[v] = true;
              ++count;
              stack.push_back(v);
            }
          }
        }
        if (count == 60) break;
      }
      for (NodeId i = 0; i < 60; ++i) {
        const auto nbrs = t.neighbors(i);
        ASSERT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), want[i])
            << "seed=" << seed << " radius=" << radius << " node=" << i;
      }
    }
  }
}

TEST(Topology, RandomGeometricScalesToLargeN) {
  stats::Rng rng(17);
  // Quadratic construction would make this test's 20k nodes crawl; the
  // bucketed search keeps it near-instant and connected.
  const Topology t = Topology::random_geometric(
      20000, 2.0 / std::sqrt(20000.0) * 1.5, rng);
  EXPECT_EQ(t.num_nodes(), 20000u);
  EXPECT_TRUE(t.is_connected());
}

// The two-arc construction, kept as the reference every undirected
// family must match arc for arc: each edge pushed as both of its
// directed arcs, each arc appended to its source's row in order (the
// order a stable counting sort by source produces).
using Arcs = std::vector<std::pair<NodeId, NodeId>>;

void push_both(Arcs& arcs, NodeId a, NodeId b) {
  arcs.emplace_back(a, b);
  arcs.emplace_back(b, a);
}

std::vector<std::vector<NodeId>> reference_rows(std::size_t n,
                                                const Arcs& arcs) {
  std::vector<std::vector<NodeId>> rows(n);
  for (const auto& [from, to] : arcs) rows[from].push_back(to);
  return rows;
}

void expect_csr_equals(const Topology& t, std::size_t n, const Arcs& arcs,
                       const std::string& label) {
  ASSERT_EQ(t.num_nodes(), n) << label;
  ASSERT_EQ(t.num_edges(), arcs.size()) << label;
  const auto want = reference_rows(n, arcs);
  for (NodeId i = 0; i < n; ++i) {
    const auto nbrs = t.neighbors(i);
    ASSERT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), want[i])
        << label << " node=" << i;
  }
}

Arcs reference_grid_arcs(std::size_t rows, std::size_t cols, bool torus) {
  Arcs arcs;
  const auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        push_both(arcs, id(r, c), id(r, c + 1));
      } else if (torus && cols > 2) {
        push_both(arcs, id(r, c), id(r, 0));
      }
      if (r + 1 < rows) {
        push_both(arcs, id(r, c), id(r + 1, c));
      } else if (torus && rows > 2) {
        push_both(arcs, id(r, c), id(0, c));
      }
    }
  }
  return arcs;
}

/// One Erdős–Rényi draw (skip sampling, p < 1) as arcs in the old order.
Arcs reference_er_arcs(std::size_t n, double p, stats::Rng& rng) {
  Arcs arcs;
  const double log1mp = std::log1p(-p);
  std::size_t v = 1;
  auto w = static_cast<std::ptrdiff_t>(-1);
  while (v < n) {
    const double r = rng.uniform();
    w += 1 + static_cast<std::ptrdiff_t>(std::floor(std::log1p(-r) / log1mp));
    while (v < n && w >= static_cast<std::ptrdiff_t>(v)) {
      w -= static_cast<std::ptrdiff_t>(v);
      ++v;
    }
    if (v < n) push_both(arcs, v, static_cast<NodeId>(w));
  }
  return arcs;
}

TEST(Topology, UndirectedFamiliesMatchTwoArcReference) {
  for (const std::size_t n : {2u, 3u, 5u}) {
    Arcs arcs;
    if (n == 2) {
      push_both(arcs, 0, 1);
    } else {
      for (NodeId i = 0; i < n; ++i) push_both(arcs, i, (i + 1) % n);
    }
    expect_csr_equals(Topology::ring(n), n, arcs,
                      "ring " + std::to_string(n));
  }
  for (const std::size_t n : {2u, 6u}) {
    Arcs line_arcs;
    for (NodeId i = 0; i + 1 < n; ++i) push_both(line_arcs, i, i + 1);
    expect_csr_equals(Topology::line(n), n, line_arcs,
                      "line " + std::to_string(n));
    Arcs star_arcs;
    for (NodeId i = 1; i < n; ++i) push_both(star_arcs, 0, i);
    expect_csr_equals(Topology::star(n), n, star_arcs,
                      "star " + std::to_string(n));
  }
  for (const bool torus : {false, true}) {
    for (const auto& [rows, cols] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {2, 2}, {3, 4}, {4, 3}, {1, 5}, {5, 5}}) {
      expect_csr_equals(Topology::grid(rows, cols, torus), rows * cols,
                        reference_grid_arcs(rows, cols, torus),
                        "grid " + std::to_string(rows) + "x" +
                            std::to_string(cols) + (torus ? " torus" : ""));
    }
  }
  // The complete graph was built from one arc per ordered pair, node by
  // node.
  for (const std::size_t n : {2u, 3u, 7u}) {
    Arcs arcs;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        if (i != j) arcs.emplace_back(i, j);
      }
    }
    expect_csr_equals(Topology::complete(n), n, arcs,
                      "complete " + std::to_string(n));
  }
}

TEST(Topology, ErdosRenyiMatchesTwoArcReference) {
  constexpr std::size_t n = 200;
  constexpr double p = 0.03;
  for (const std::uint64_t seed : {1u, 2u, 3u, 1009u}) {
    stats::Rng rng(seed);
    const Topology t = Topology::erdos_renyi(n, p, rng);
    // Replay every draw, rejected ones included, on the same stream.
    stats::Rng reference_rng(seed);
    Arcs arcs;
    do {
      arcs = reference_er_arcs(n, p, reference_rng);
    } while (!Topology::from_edges(n, arcs).is_connected());
    expect_csr_equals(t, n, arcs, "er seed " + std::to_string(seed));
    // Both draws left the stream at the same place.
    EXPECT_EQ(rng.uniform(), reference_rng.uniform());
  }
}

// One reachability pass settles an undirected graph only: a directed one
// whose every node is reachable from 0, but which cannot get back to 0,
// is not strongly connected.
TEST(Topology, DirectedForwardReachAloneIsNotConnected) {
  const Topology asymmetric =
      Topology::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 1}});
  EXPECT_FALSE(asymmetric.is_connected());

  const Topology ring = Topology::directed_ring(5);
  Arcs broken;
  for (NodeId i = 0; i < 5; ++i) {
    for (const NodeId j : ring.neighbors(i)) {
      if (j != 0) broken.emplace_back(i, j);  // drop 4 → 0
    }
  }
  ASSERT_EQ(broken.size(), 4u);
  EXPECT_FALSE(Topology::from_edges(5, broken).is_connected());
  broken.emplace_back(4, 0);
  EXPECT_TRUE(Topology::from_edges(5, broken).is_connected());
}

TEST(Topology, NeighborsMatchesRingStructure) {
  const Topology t = Topology::ring(5);
  for (NodeId i = 0; i < 5; ++i) {
    const auto nbrs = t.neighbors(i);
    const std::vector<NodeId> got(nbrs.begin(), nbrs.end());
    const std::vector<NodeId> want = {(i + 4) % 5, (i + 1) % 5};
    EXPECT_EQ(std::set<NodeId>(got.begin(), got.end()),
              std::set<NodeId>(want.begin(), want.end()));
  }
}

}  // namespace
}  // namespace ddc::sim
