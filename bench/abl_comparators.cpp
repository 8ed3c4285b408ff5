// Ablation — one-shot gossip classification vs iterated distributed
// k-means (Datta et al., the paper's Section 2 comparator).
//
// Both protocols end with every node knowing two cluster centroids of a
// bimodal data set. Ours converges in ONE gossip run; distributed k-means
// simulates Lloyd iterations, each of which embeds a full
// distributed-averaging run — the paper's "multiple aggregation
// iterations, each similar in length to one complete run of our
// algorithm". We measure gossip rounds until every node's centroids are
// within 0.5 of the true cluster means.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/shard/factories.hpp>

#include "bench_util.hpp"

namespace {

using ddc::linalg::Vector;

constexpr double kCenters[] = {0.0, 5.0, 10.0};

/// Worst distance, over all nodes and true cluster centers, from the
/// center to the node's nearest learned centroid (Hausdorff-style; large
/// while any node still lumps two clusters together).
template <typename GetCentroids, typename Nodes>
double worst_centroid_error(const Nodes& nodes, GetCentroids get) {
  double worst = 0.0;
  for (const auto& node : nodes) {
    const auto centroids = get(node);
    for (const double center : kCenters) {
      double nearest = 1e9;
      for (const auto& c : centroids) {
        nearest = std::min(nearest, std::abs(c[0] - center));
      }
      worst = std::max(worst, nearest);
    }
  }
  return worst;
}

}  // namespace

int main() {
  const std::size_t n = 100;
  std::cout << "=== Ablation: gossip classification vs distributed k-means "
               "(n = " << n << ", three clusters) ===\n\n";

  ddc::stats::Rng rng(130);
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(kCenters[i % 3], 0.5)});
  }

  ddc::io::Table table({"protocol", "gossip rounds to centroid error < 0.5",
                        "Lloyd iterations"});

  // Our protocol: one run of the generic algorithm (centroids, k = 2).
  {
    ddc::sim::EngineConfig config;
    config.k = 3;
    config.protocol_seed = 131;
    auto runner = ddc::shard::make_centroid_round_runner(
        ddc::sim::Topology::complete(n), inputs, config);
    std::size_t rounds = 0;
    while (rounds < 5000) {
      runner.run_round();
      ++rounds;
      const double err = worst_centroid_error(
          runner.nodes(), [](const auto& node) {
            std::vector<Vector> cs;
            for (const auto& c : node.classification()) cs.push_back(c.summary);
            return cs;
          });
      if (err < 0.5) break;
    }
    table.add_row({std::string("generic gossip classifier (this paper)"),
                   static_cast<long long>(rounds), std::string("—")});
  }

  // Distributed k-means with varying averaging budget per iteration —
  // three independent runs, fanned across the bench pool.
  const std::vector<std::size_t> budgets = {10, 20, 40};
  const auto kmeans_rows =
      ddc::bench::sweep(budgets.size(), [&](std::size_t bi) {
        const std::size_t rpi = budgets[bi];
        ddc::sim::EngineConfig config;
        config.seed = 132;
        // Shared initial centroids that cut through the left cluster, so
        // Lloyd needs several assignment/update iterations to untangle them
        // (a bad-enough init stalls Lloyd permanently — centralized or
        // distributed — so we pick one that is recoverable but slow).
        auto runner = ddc::shard::make_dkmeans_round_runner(
            ddc::sim::Topology::complete(n), inputs,
            {Vector{1.0}, Vector{2.0}, Vector{9.0}}, rpi, config);
        std::size_t rounds = 0;
        while (rounds < 5000) {
          runner.run_round();
          ++rounds;
          const double err = worst_centroid_error(
              runner.nodes(),
              [](const auto& node) { return node.centroids(); });
          if (err < 0.5) break;
        }
        return std::pair<std::size_t, std::size_t>{
            rounds, runner.nodes()[0].iteration()};
      });
  for (std::size_t bi = 0; bi < budgets.size(); ++bi) {
    table.add_row(
        {std::string("distributed k-means, ") + std::to_string(budgets[bi]) +
             " rounds/iteration",
         static_cast<long long>(kmeans_rows[bi].first),
         static_cast<long long>(kmeans_rows[bi].second)});
  }

  table.print(std::cout);
  std::cout << "\n(distributed k-means pays one full averaging run per Lloyd "
               "iteration; the generic algorithm classifies in a single "
               "gossip run — the paper's Section 2 comparison)\n";
  return 0;
}
