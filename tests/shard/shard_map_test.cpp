#include <ddc/shard/shard_map.hpp>

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::shard {
namespace {

TEST(ShardMap, BalancedContiguousPartition) {
  for (const std::size_t n : {7UL, 8UL, 100UL, 1001UL}) {
    for (const ShardId s : {ShardId{1}, ShardId{2}, ShardId{3}, ShardId{7}}) {
      const ShardMap map(n, s);
      std::size_t total = 0;
      std::size_t min_size = n;
      std::size_t max_size = 0;
      for (ShardId shard = 0; shard < s; ++shard) {
        const auto owned = map.owned(shard);
        ASSERT_FALSE(owned.empty());
        EXPECT_EQ(owned.front(), total);
        EXPECT_EQ(owned.back() - owned.front() + 1, map.size(shard));
        // No tables: shard_of divides, owns compares, local_index
        // subtracts; all must agree with the ranges.
        for (std::size_t j = 0; j < owned.size(); ++j) {
          EXPECT_EQ(owned[j], total + j);
          EXPECT_EQ(map.shard_of(owned[j]), shard);
          EXPECT_EQ(map.local_index(owned[j]), j);
          for (ShardId t = 0; t < s; ++t) {
            EXPECT_EQ(map.owns(t, owned[j]), t == shard);
          }
        }
        total += map.size(shard);
        min_size = std::min(min_size, map.size(shard));
        max_size = std::max(max_size, map.size(shard));
      }
      EXPECT_EQ(total, n);
      EXPECT_LE(max_size - min_size, 1UL);
    }
  }
}

TEST(ShardMap, ShardOfInvertsRanges) {
  const ShardMap map(103, 7);
  for (ShardId s = 0; s < map.num_shards(); ++s) {
    for (const sim::NodeId i : map.owned(s)) {
      EXPECT_EQ(map.shard_of(i), s);
    }
  }
}

TEST(ShardMap, SameMapOnEveryShardOfTheSameConfig) {
  // The map is derived from (n, S) alone — two independently constructed
  // maps (one per process in real deployments) must agree everywhere.
  const ShardMap a(1000, 4);
  const ShardMap b(1000, 4);
  for (sim::NodeId i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.shard_of(i), b.shard_of(i));
  }
}

TEST(ShardMap, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardMap(10, 0), ConfigError);
  EXPECT_THROW(ShardMap(3, 4), ConfigError);
  EXPECT_NO_THROW(ShardMap(4, 4));
}

TEST(ShardMap, CutEdgesCountsCrossShardTraffic) {
  // A ring cut into S contiguous arcs has S boundaries, each crossed by
  // one directed edge per direction.
  const std::size_t n = 24;
  const auto ring = sim::Topology::ring(n);
  EXPECT_EQ(ShardMap(n, 1).cut_edges(ring), 0UL);
  EXPECT_EQ(ShardMap(n, 2).cut_edges(ring), 4UL);
  EXPECT_EQ(ShardMap(n, 4).cut_edges(ring), 8UL);
  // The complete graph cut grows with shard count but never exceeds the
  // total directed edge count.
  const auto complete = sim::Topology::complete(n);
  EXPECT_LT(ShardMap(n, 2).cut_edges(complete), n * (n - 1));
  EXPECT_GT(ShardMap(n, 4).cut_edges(complete),
            ShardMap(n, 2).cut_edges(complete));
}

TEST(ShardMap, ContiguousFactoryMatchesDirectConstruction) {
  const auto grid = sim::Topology::grid(8, 16);
  const ShardMap direct(grid.num_nodes(), 4);
  const ShardMap made = ShardMap::make(Partitioner::contiguous, grid, 4);
  for (ShardId s = 0; s < made.num_shards(); ++s) {
    const auto owned = made.owned(s);
    EXPECT_EQ(owned.back() - owned.front() + 1, made.size(s));
  }
  for (sim::NodeId i = 0; i < grid.num_nodes(); ++i) {
    EXPECT_EQ(made.shard_of(i), direct.shard_of(i));
    EXPECT_EQ(made.local_index(i), direct.local_index(i));
  }
}

TEST(ShardMap, EdgecutOwnsEveryNodeExactlyOnceAndBalances) {
  stats::Rng rng(71);
  const sim::Topology topologies[] = {
      sim::Topology::grid(16, 32),
      sim::Topology::random_geometric(512, 0.1, rng),
      sim::Topology::ring(512),
  };
  for (const auto& topology : topologies) {
    for (const ShardId s : {ShardId{2}, ShardId{3}, ShardId{8}}) {
      const ShardMap map = ShardMap::make(Partitioner::edgecut, topology, s);
      const std::size_t n = topology.num_nodes();
      std::vector<std::size_t> owners_seen(n, 0);
      std::size_t min_size = n;
      std::size_t max_size = 0;
      for (ShardId shard = 0; shard < s; ++shard) {
        const auto owned = map.owned(shard);
        EXPECT_EQ(owned.size(), map.size(shard));
        min_size = std::min(min_size, owned.size());
        max_size = std::max(max_size, owned.size());
        sim::NodeId prev = 0;
        for (std::size_t j = 0; j < owned.size(); ++j) {
          const sim::NodeId i = owned[j];
          ASSERT_LT(i, n);
          ++owners_seen[i];
          EXPECT_EQ(map.shard_of(i), shard);
          EXPECT_TRUE(map.owns(shard, i));
          EXPECT_EQ(map.local_index(i), j);
          if (j > 0) {
            EXPECT_GT(i, prev);  // owned lists stay ascending
          }
          prev = i;
        }
      }
      for (sim::NodeId i = 0; i < n; ++i) EXPECT_EQ(owners_seen[i], 1UL);
      // The refinement slack keeps shards within one node of balance
      // plus the bounded slack; never empty.
      EXPECT_GE(min_size, 1UL);
      EXPECT_LE(max_size - min_size,
                2 * std::max<std::size_t>(1, n / s / 8) + 1);
      // Shard 0 must keep node 0: shard 0's engine reports the RESULT
      // line for its first owned node, which the scripts compare
      // string-for-string against ddcsim's node-0 report.
      EXPECT_EQ(map.shard_of(0), ShardId{0});
      EXPECT_EQ(map.owned(0).front(), sim::NodeId{0});
    }
  }
}

TEST(ShardMap, EdgecutIsDeterministicAcrossConstructions) {
  stats::Rng rng(72);
  const auto topology = sim::Topology::random_geometric(400, 0.12, rng);
  const ShardMap a = ShardMap::make(Partitioner::edgecut, topology, 4);
  const ShardMap b = ShardMap::make(Partitioner::edgecut, topology, 4);
  for (sim::NodeId i = 0; i < topology.num_nodes(); ++i) {
    EXPECT_EQ(a.shard_of(i), b.shard_of(i));
    EXPECT_EQ(a.local_index(i), b.local_index(i));
  }
}

TEST(ShardMap, EdgecutNeverCutsMoreThanContiguous) {
  // The make() fallback guarantees this unconditionally; on the
  // locality-rich fixtures the cut should be strictly lower.
  stats::Rng rng(73);
  const sim::Topology locality_rich[] = {
      sim::Topology::grid(32, 64),
      sim::Topology::random_geometric(1024, 0.06, rng),
  };
  for (const auto& topology : locality_rich) {
    for (const ShardId s : {ShardId{2}, ShardId{4}, ShardId{8}}) {
      const auto edgecut = ShardMap::make(Partitioner::edgecut, topology, s);
      const auto contiguous =
          ShardMap::make(Partitioner::contiguous, topology, s);
      EXPECT_LT(edgecut.cut_edges(topology), contiguous.cut_edges(topology))
          << "shards=" << s;
    }
  }
  // Adversarial fixture where contiguous arcs are already optimal: the
  // fallback must kick in and the cut must not regress.
  const auto ring = sim::Topology::ring(256);
  for (const ShardId s : {ShardId{2}, ShardId{8}}) {
    const auto edgecut = ShardMap::make(Partitioner::edgecut, ring, s);
    const auto contiguous = ShardMap::make(Partitioner::contiguous, ring, s);
    EXPECT_LE(edgecut.cut_edges(ring), contiguous.cut_edges(ring));
  }
}

TEST(ShardMap, PartitionerNamesRoundTrip) {
  EXPECT_EQ(parse_partitioner("contiguous"), Partitioner::contiguous);
  EXPECT_EQ(parse_partitioner("edgecut"), Partitioner::edgecut);
  EXPECT_EQ(partitioner_name(Partitioner::contiguous), "contiguous");
  EXPECT_EQ(partitioner_name(Partitioner::edgecut), "edgecut");
  EXPECT_THROW((void)parse_partitioner("metis"), ConfigError);
}

}  // namespace
}  // namespace ddc::shard
