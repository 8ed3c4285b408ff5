// Ablation — convergence speed across topologies.
//
// Theorem 1 guarantees convergence on ANY connected topology; this bench
// measures the price of sparse connectivity: rounds until all nodes agree
// (classification distance vs node 0 below 1e-3) for the centroids
// algorithm on a two-cluster workload, across standard topology families.
//
// Expected shape: complete/ER/geometric converge in O(log n)-ish rounds;
// ring/line/star pay a diffusion penalty roughly quadratic in diameter.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/centroid.hpp>

#include "bench_util.hpp"

namespace {

std::vector<ddc::linalg::Vector> two_cluster_inputs(std::size_t n,
                                                    ddc::stats::Rng& rng) {
  std::vector<ddc::linalg::Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(ddc::linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(100.0, 1.0)});
  }
  return inputs;
}

}  // namespace

int main() {
  const std::size_t n = 64;
  const std::size_t max_rounds = 100000;

  std::cout << "=== Ablation: topology vs rounds-to-agreement (n = " << n
            << ", centroid algorithm, k = 2) ===\n\n";

  ddc::stats::Rng topo_rng(50);
  struct Entry {
    const char* name;
    ddc::sim::Topology topology;
  };
  std::vector<Entry> entries;
  entries.push_back({"complete", ddc::sim::Topology::complete(n)});
  entries.push_back({"erdos_renyi(0.1)",
                     ddc::sim::Topology::erdos_renyi(n, 0.1, topo_rng)});
  entries.push_back({"geometric(0.25)",
                     ddc::sim::Topology::random_geometric(n, 0.25, topo_rng)});
  entries.push_back({"torus 8x8", ddc::sim::Topology::grid(8, 8, true)});
  entries.push_back({"grid 8x8", ddc::sim::Topology::grid(8, 8)});
  entries.push_back({"star", ddc::sim::Topology::star(n)});
  entries.push_back({"ring", ddc::sim::Topology::ring(n)});
  entries.push_back({"line", ddc::sim::Topology::line(n)});

  struct Row {
    std::size_t diameter = 0;
    std::size_t edges = 0;
    std::size_t rounds = 0;
  };
  // Topologies were built sequentially above (they share topo_rng); the
  // simulations themselves are independent and fan across the bench pool.
  const auto rows = ddc::bench::sweep(entries.size(), [&](std::size_t ei) {
    Entry& entry = entries[ei];
    ddc::stats::Rng rng(51);
    const auto inputs = two_cluster_inputs(n, rng);

    ddc::sim::EngineConfig config;
    config.k = 2;
    // Fine quantum: poorly-mixing topologies shrink collection weights by
    // large factors between refills (see DESIGN.md).
    config.quanta_per_unit = std::int64_t{1} << 40;
    config.protocol_seed = 52;
    config.selection = ddc::sim::NeighborSelection::round_robin;
    config.seed = 53;

    Row row;
    row.diameter = entry.topology.diameter();
    row.edges = entry.topology.num_edges();
    auto runner = ddc::shard::make_centroid_round_runner(
        std::move(entry.topology), inputs, config);
    row.rounds =
        ddc::bench::run_until_agreement<ddc::summaries::CentroidPolicy>(
            runner, 1e-3, 10, max_rounds);
    return row;
  });

  ddc::io::Table table({"topology", "diameter", "directed edges",
                        "rounds to agreement"});
  for (std::size_t ei = 0; ei < entries.size(); ++ei) {
    table.add_row({std::string(entries[ei].name),
                   static_cast<long long>(rows[ei].diameter),
                   static_cast<long long>(rows[ei].edges),
                   static_cast<long long>(rows[ei].rounds)});
  }
  table.print(std::cout);
  std::cout << "\n(any connected topology converges — Theorem 1; sparse, "
               "high-diameter graphs just take longer)\n";
  return 0;
}
