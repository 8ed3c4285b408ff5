// Ablation — the weight quantum q.
//
// The paper quantizes weights to multiples of q to exclude Zeno effects
// and assumes q ≪ 1/n. This bench makes the assumption concrete: on a
// ring (where collection weights shrink geometrically between refills) we
// sweep quanta-per-unit (q = 1 / qpu) and report final disagreement and
// the worst relative-weight error against the exact cluster fractions.
// Conservation is asserted exactly at every resolution — quantization
// degrades precision, never conservation.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/centroid.hpp>

#include "bench_util.hpp"

int main() {
  const std::size_t n = 32;
  const std::size_t rounds = 2000;

  std::cout << "=== Ablation: weight quantum q = 1/qpu (n = " << n
            << ", ring, centroid algorithm, " << rounds << " rounds) ===\n\n";

  ddc::stats::Rng rng(80);
  std::vector<ddc::linalg::Vector> inputs;
  std::size_t low_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool low = i % 4 != 3;  // 3/4 low cluster, 1/4 high
    low_count += low ? 1 : 0;
    inputs.push_back(ddc::linalg::Vector{
        low ? rng.normal(0.0, 1.0) : rng.normal(100.0, 1.0)});
  }
  const double true_fraction =
      static_cast<double>(low_count) / static_cast<double>(n);

  struct QRow {
    std::int64_t qpu = 0;
    double disagreement = 0.0;
    double worst_share_error = 0.0;
    bool conserved = false;
  };
  const std::vector<int> log_qpus = {4, 8, 12, 16, 20, 28, 36, 44};
  // Every quantum resolution is an independent run — fan across the pool.
  const auto rows = ddc::bench::sweep(log_qpus.size(), [&](std::size_t qi) {
    QRow row;
    row.qpu = std::int64_t{1} << log_qpus[qi];
    ddc::sim::EngineConfig config;
    config.k = 2;
    config.quanta_per_unit = row.qpu;
    config.protocol_seed = 81;
    config.selection = ddc::sim::NeighborSelection::round_robin;
    config.seed = 82;
    auto runner = ddc::shard::make_centroid_round_runner(
        ddc::sim::Topology::ring(n), inputs, config);
    runner.run_rounds(rounds);

    row.disagreement = ddc::metrics::max_disagreement_vs_first<
        ddc::summaries::CentroidPolicy>(runner.nodes());
    for (const auto& node : runner.nodes()) {
      const auto& c = node.classification();
      for (std::size_t j = 0; j < c.size(); ++j) {
        if (c[j].summary[0] < 50.0) {
          row.worst_share_error =
              std::max(row.worst_share_error,
                       std::abs(c.relative_weight(j) - true_fraction));
        }
      }
    }
    row.conserved = ddc::metrics::total_quanta(runner.nodes()) ==
                    static_cast<std::int64_t>(n) * row.qpu;
    return row;
  });

  ddc::io::Table table({"quanta/unit", "q*n", "disagreement",
                        "max weight-share error", "conserved"});
  for (const QRow& row : rows) {
    table.add_row({static_cast<long long>(row.qpu),
                   static_cast<double>(n) / static_cast<double>(row.qpu),
                   row.disagreement, row.worst_share_error,
                   std::string(row.conserved ? "yes" : "NO")});
  }
  table.print(std::cout);
  std::cout << "\n(q·n ≪ 1 is the paper's assumption; coarse quanta distort "
               "relative weights but conservation stays exact)\n";
  return 0;
}
