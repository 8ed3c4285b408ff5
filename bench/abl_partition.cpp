// Ablation — partition strategy for the Gaussian instantiation.
//
// The paper argues for EM-based merge decisions (Section 5.2). This bench
// runs the Fig. 2 workload under three drop-in partition policies —
// EM (the paper's), Runnalls' KL-bound greedy merging, and the
// covariance-blind nearest-means heuristic (Algorithm 2's rule lifted to
// Gaussians) — and compares recovery quality and wall-clock cost.
#include <chrono>
#include <iostream>

#include <ddc/gossip/network.hpp>
#include <ddc/io/table.hpp>
#include <ddc/metrics/gaussian_metrics.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/stats/mixture_distance.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/workload/scenarios.hpp>

#include "bench_util.hpp"

namespace {

constexpr std::size_t kNodes = 300;
constexpr std::size_t kK = 7;
constexpr std::size_t kMaxRounds = 80;

using Truth = ddc::stats::GaussianMixture;

template <typename Node, typename PolicyFactory>
void bench_policy(ddc::io::Table& table, const char* name, const Truth& truth,
                  const std::vector<ddc::linalg::Vector>& inputs,
                  PolicyFactory make_policy) {
  std::vector<Node> nodes;
  nodes.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ddc::core::ClassifierOptions options;
    options.k = kK;
    options.quanta_per_unit = std::int64_t{1} << 20;
    nodes.emplace_back(inputs[i], make_policy(i), options);
  }
  ddc::shard::ShardEngine<Node> runner(
      ddc::sim::Topology::complete(inputs.size()), std::move(nodes));

  const auto start = std::chrono::steady_clock::now();
  const std::size_t rounds =
      ddc::bench::run_until_agreement<ddc::summaries::GaussianPolicy>(
          runner, 1e-3, 5, kMaxRounds);
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  const auto estimate =
      ddc::summaries::to_mixture(runner.nodes()[0].classification());
  table.add_row({std::string(name), static_cast<long long>(rounds),
                 ddc::metrics::mixture_recovery_error(truth, estimate),
                 ddc::stats::normalized_ise(truth, estimate),
                 elapsed / static_cast<double>(rounds),
                 static_cast<long long>(estimate.size())});
}

}  // namespace

int main() {
  std::cout << "=== Ablation: partition policy on the Fig. 2 workload (n = "
            << kNodes << ", k = " << kK << ") ===\n\n";

  const Truth truth = ddc::workload::fig2_mixture();
  ddc::stats::Rng rng(60);
  const auto inputs = ddc::workload::sample_inputs(truth, kNodes, rng);

  ddc::io::Table table({"partition policy", "rounds", "recovery error",
                        "NISE", "ms/round", "final collections"});

  bench_policy<ddc::gossip::GmNode>(
      table, "EM (paper)", truth, inputs, [](std::size_t i) {
        return ddc::partition::EmPartition(ddc::stats::Rng::derive(61, i));
      });
  bench_policy<ddc::gossip::GmRunnallsNode>(
      table, "Runnalls greedy", truth, inputs,
      [](std::size_t) { return ddc::partition::RunnallsPartition{}; });
  bench_policy<ddc::gossip::GmNearestMeansNode>(
      table, "nearest means", truth, inputs,
      [](std::size_t) { return ddc::partition::NearestMeansPartition{}; });

  table.print(std::cout);
  std::cout << "\n(EM and Runnalls use covariance information; nearest-means "
               "is the centroid heuristic and pays for ignoring it)\n";
  return 0;
}
