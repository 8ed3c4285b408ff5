// Ablation — scalability in the number of nodes, and in worker threads.
//
// Part 1: gossip aggregation on well-connected graphs converges in
// O(log n) rounds; message SIZE is bounded by k summaries regardless of n
// (the property that makes the protocol deployable on sensor motes). This
// bench sweeps n on the complete graph and reports rounds-to-agreement for
// the GM algorithm plus the per-message collection count. The sweep itself
// fans across the shared bench pool — each n is an independent simulation.
//
// Part 2: engine thread scaling. The phase-split round engine parallelizes
// the prepare/absorb phases with bit-identical results at any thread
// count; this part times a fixed n = 512 GM workload at 1, 2, 4 and 8
// worker threads, checks the classifications match byte-for-byte, and
// reports each speedup over 1 thread. (No run can beat the host's core
// count — the printed ratios record whatever the hardware gives.)
#include <chrono>
#include <iostream>

#include <ddc/gossip/runners.hpp>
#include <ddc/io/table.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/wire/serialize.hpp>

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
  auto runner = ddc::sim::make_gm_round_runner(ddc::sim::Topology::complete(n),
                                               inputs, config);
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

/// Runs `rounds` GM rounds at the given engine parallelism and returns
/// elapsed seconds plus node 0's wire-encoded classification (for the
/// bit-identity check across thread counts).
std::pair<double, std::vector<std::byte>> time_threads(
    const std::vector<ddc::linalg::Vector>& inputs, std::size_t threads,
    std::size_t rounds) {
  ddc::sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 101;
  config.seed = 103;
  config.parallelism = threads;
  auto runner = ddc::sim::make_gm_round_runner(
      ddc::sim::Topology::complete(inputs.size()), inputs, config);

  const auto start = std::chrono::steady_clock::now();
  runner.run_rounds(rounds);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return {elapsed.count(),
          ddc::wire::encode_classification(runner.nodes()[0].classification())};
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

  std::cout << "\n=== Engine thread scaling (n = 512, GM, 30 rounds) ===\n\n";
  const auto inputs = bimodal_inputs(512);
  const std::size_t kRounds = 30;
  const auto [t1, c1] = time_threads(inputs, 1, kRounds);
  std::cout << "  threads=1: " << t1 << " s\n";
  bool identical = true;
  for (const std::size_t threads : {2, 4, 8}) {
    const auto [t, c] = time_threads(inputs, threads, kRounds);
    identical = identical && c == c1;
    std::cout << "  threads=" << threads << ": " << t << " s  speedup "
              << (t > 0.0 ? t1 / t : 0.0) << "x\n";
  }
  std::cout << "  results bit-identical: " << (identical ? "yes" : "NO")
            << '\n'
            << "  hardware threads:      "
            << ddc::exec::ThreadPool::hardware_threads() << '\n';
  return identical ? 0 : 1;
}
