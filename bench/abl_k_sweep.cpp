// Ablation — the collection bound k (adaptive-compression knob).
//
// k controls how lossy the in-network compression is: k = 1 degenerates to
// average aggregation, k ≥ the true component count leaves room for exact
// structure plus outlier slack. This bench sweeps k on the Fig. 2 workload
// and reports recovery error and the average log-likelihood of a held-out
// sample under node 0's converged mixture.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/metrics/gaussian_metrics.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/stats/mixture_distance.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/workload/scenarios.hpp>

#include "bench_util.hpp"

int main() {
  const std::size_t n = 300;
  std::cout << "=== Ablation: k sweep on the Fig. 2 workload (n = " << n
            << ") ===\n\n";

  const ddc::stats::GaussianMixture truth = ddc::workload::fig2_mixture();
  ddc::stats::Rng rng(70);
  const auto inputs = ddc::workload::sample_inputs(truth, n, rng);
  const auto holdout = ddc::workload::sample_inputs(truth, 500, rng);

  struct KRow {
    std::size_t k = 0;
    std::size_t rounds = 0;
    ddc::stats::GaussianMixture estimate;
  };
  const std::vector<std::size_t> ks = {1, 2, 3, 5, 7, 10, 14};
  // One independent simulation per k — fan across the bench pool.
  const auto rows = ddc::bench::sweep(ks.size(), [&](std::size_t ki) {
    KRow row;
    row.k = ks[ki];
    ddc::sim::EngineConfig config;
    config.k = row.k;
    config.protocol_seed = 71;
    auto runner = ddc::shard::make_gm_round_runner(
        ddc::sim::Topology::complete(n), inputs, config);
    row.rounds =
        ddc::bench::run_until_agreement<ddc::summaries::GaussianPolicy>(
            runner, 1e-3, 5, 80);
    row.estimate =
        ddc::summaries::to_mixture(runner.nodes()[0].classification());
    return row;
  });

  ddc::io::Table table({"k", "rounds", "recovery error", "NISE",
                        "holdout avg log-lik", "final collections"});
  for (const KRow& row : rows) {
    double loglik = 0.0;
    for (const auto& x : holdout) {
      loglik += row.estimate.log_pdf(x) / static_cast<double>(holdout.size());
    }
    table.add_row({static_cast<long long>(row.k),
                   static_cast<long long>(row.rounds),
                   ddc::metrics::mixture_recovery_error(truth, row.estimate),
                   ddc::stats::normalized_ise(truth, row.estimate), loglik,
                   static_cast<long long>(row.estimate.size())});
  }
  table.print(std::cout);
  std::cout << "\n(k below the true component count forces cross-cluster "
               "merges; extra k costs little — surplus collections stay "
               "small or singleton)\n";
  return 0;
}
