// Ablation — scalability in the number of nodes.
//
// Gossip aggregation on well-connected graphs converges in O(log n)
// rounds; message SIZE is bounded by k summaries regardless of n (the
// property that makes the protocol deployable on sensor motes). This
// bench sweeps n on the complete graph and reports rounds-to-agreement for
// the GM algorithm plus the per-message collection count. The sweep itself
// fans across the shared bench pool — each n is an independent simulation.
// Engine thread scaling is measured by bench_scale's /t1 /t2 /t4 rows in
// BENCH_scale.json.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/gaussian_summary.hpp>

#include "bench_util.hpp"

namespace {

std::vector<ddc::linalg::Vector> bimodal_inputs(std::size_t n) {
  ddc::stats::Rng rng(100);
  std::vector<ddc::linalg::Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(ddc::linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(50.0, 2.0),
        rng.normal(0.0, 1.0)});
  }
  return inputs;
}

struct ScaleRow {
  std::size_t n = 0;
  std::size_t rounds = 0;
  std::size_t max_msg = 0;
};

ScaleRow measure_n(std::size_t n) {
  const auto inputs = bimodal_inputs(n);
  ddc::sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 101;
  auto runner = ddc::shard::make_gm_round_runner(
      ddc::sim::Topology::complete(n), inputs, config);
  ScaleRow row;
  row.n = n;
  row.rounds = ddc::bench::run_until_agreement<ddc::summaries::GaussianPolicy>(
      runner, 1e-2, 2, 200);

  // Message size bound: a split ships at most k collections, whatever n.
  for (auto& node : runner.nodes()) {
    row.max_msg = std::max(row.max_msg, node.prepare_message().size());
  }
  return row;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: scalability (complete graph, GM, k = 2) ===\n\n";

  const std::vector<std::size_t> sizes = {32, 64, 128, 256, 512, 1000};
  const auto rows = ddc::bench::sweep(
      sizes.size(), [&](std::size_t i) { return measure_n(sizes[i]); });

  ddc::io::Table table({"n", "rounds to agreement", "max msg collections"});
  for (const ScaleRow& row : rows) {
    table.add_row({static_cast<long long>(row.n),
                   static_cast<long long>(row.rounds),
                   static_cast<long long>(row.max_msg)});
  }
  table.print(std::cout);
  std::cout << "\n(rounds grow ~logarithmically; message size is bounded by "
               "k, independent of n — the paper's bandwidth claim)\n";
  return 0;
}
