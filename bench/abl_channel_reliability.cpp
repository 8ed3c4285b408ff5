// Ablation — violating the reliable-channel assumption.
//
// The model (paper Section 3.1) assumes reliable links: every sent message
// is eventually delivered. This bench deliberately breaks that — each
// message is lost independently with probability p — and measures what it
// costs: lost messages carry weight out of the system permanently, so
// total weight decays geometrically, yet the *summaries* (which are ratios
// and averages) keep converging; what degrades is the precision of the
// relative weights and, at extreme loss, the ability to keep sparse
// collections alive.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/centroid.hpp>

#include "bench_util.hpp"

int main() {
  const std::size_t n = 64;
  const std::size_t rounds = 400;

  std::cout << "=== Ablation: message loss (n = " << n
            << ", complete graph, centroid algorithm, " << rounds
            << " rounds) ===\n\n";

  ddc::stats::Rng rng(150);
  std::vector<ddc::linalg::Vector> inputs;
  std::size_t low_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool low = i % 3 != 2;
    low_count += low ? 1 : 0;
    inputs.push_back(ddc::linalg::Vector{
        low ? rng.normal(0.0, 1.0) : rng.normal(100.0, 1.0)});
  }
  const double true_fraction =
      static_cast<double>(low_count) / static_cast<double>(n);
  // Exact sample mean of the low cluster — the destination the summaries
  // converge to in a loss-free run.
  double low_mean = 0.0;
  for (const auto& v : inputs) {
    if (v[0] < 50.0) low_mean += v[0] / static_cast<double>(low_count);
  }

  const std::vector<double> losses = {0.0, 0.01, 0.05, 0.1, 0.25, 0.5};
  // Each loss level is an independent run — fan across the bench pool and
  // collect printable rows in order.
  const auto rows = ddc::bench::sweep(losses.size(), [&](std::size_t li) {
    const double loss = losses[li];
    ddc::sim::EngineConfig config;
    config.k = 2;
    config.quanta_per_unit = std::int64_t{1} << 40;
    config.protocol_seed = 151;
    config.message_loss_probability = loss;
    config.seed = 152;
    auto runner = ddc::shard::make_centroid_round_runner(
        ddc::sim::Topology::complete(n), inputs, config);
    runner.run_rounds(rounds);

    const double initial_quanta =
        static_cast<double>(n) * static_cast<double>(config.quanta_per_unit);
    const double remaining =
        static_cast<double>(ddc::metrics::total_quanta(runner.nodes())) /
        initial_quanta;

    double worst_centroid = 0.0;
    double worst_share = 0.0;
    for (const auto& node : runner.nodes()) {
      const auto& c = node.classification();
      for (std::size_t j = 0; j < c.size(); ++j) {
        if (c[j].summary[0] < 50.0) {
          worst_centroid =
              std::max(worst_centroid, std::abs(c[j].summary[0] - low_mean));
          worst_share = std::max(
              worst_share, std::abs(c.relative_weight(j) - true_fraction));
        }
      }
    }
    return std::vector<double>{
        loss, 100.0 * remaining,
        ddc::metrics::max_disagreement_vs_first<ddc::summaries::CentroidPolicy>(
            runner.nodes()),
        worst_centroid, worst_share};
  });

  ddc::io::Table table({"loss prob", "weight remaining %", "disagreement",
                        "low-cluster centroid err", "weight-share err"});
  for (const auto& row : rows) {
    table.add_row({row[0], row[1], row[2], row[3], row[4]});
  }
  table.print(std::cout);
  std::cout << "\n(summaries survive heavy loss — they are weight-relative — "
               "but absolute weight drains geometrically, which is why the "
               "paper's model insists on reliable links)\n";
  return 0;
}
