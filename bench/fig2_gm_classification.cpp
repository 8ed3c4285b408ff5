// Figure 2 — Gaussian Mixture classification of multidimensional data.
//
// Paper setup (Section 5.3.1): values generated from three Gaussians in
// R² (the "fence by the woods" temperature field); 1,000 nodes; fully
// connected network; k = 7; run until convergence. The paper shows the
// estimated equidensity ellipses over the data (Fig. 2c) and notes that
// leftover singleton collections appear as x's.
//
// This bench prints the same content numerically: the ground-truth
// components, node 0's converged estimate (weight/mean/covariance per
// collection, with singletons flagged), the component-recovery error, and
// the rounds it took for all nodes to agree.
#include <iostream>

#include <ddc/io/ascii_canvas.hpp>
#include <ddc/io/table.hpp>
#include <ddc/metrics/gaussian_metrics.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/stats/mixture_distance.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/workload/scenarios.hpp>

#include "bench_util.hpp"

int main() {
  using ddc::stats::GaussianMixture;

  const std::size_t n = 1000;
  const std::size_t k = 7;

  std::cout << "=== Figure 2: GM classification, " << n
            << " nodes, fully connected, k = " << k << " ===\n\n";

  const GaussianMixture truth = ddc::workload::fig2_mixture();
  ddc::stats::Rng rng(2);
  const auto inputs = ddc::workload::sample_inputs(truth, n, rng);

  ddc::sim::EngineConfig config;
  config.k = k;
  config.protocol_seed = 2;
  config.parallelism = ddc::bench::bench_threads();
  auto runner = ddc::shard::make_gm_round_runner(
      ddc::sim::Topology::complete(n), inputs, config);

  const std::size_t rounds =
      ddc::bench::run_until_agreement<ddc::summaries::GaussianPolicy>(
          runner, /*threshold=*/1e-3, /*check_every=*/5, /*max_rounds=*/80);

  std::cout << "converged after " << rounds << " rounds (agreement < 1e-3)\n\n";

  ddc::io::Table truth_table({"true component", "weight", "mean x", "mean y",
                              "var x", "var y", "cov"});
  for (std::size_t j = 0; j < truth.size(); ++j) {
    const auto& g = truth[j].gaussian;
    truth_table.add_row({static_cast<long long>(j), truth[j].weight,
                         g.mean()[0], g.mean()[1], g.cov()(0, 0),
                         g.cov()(1, 1), g.cov()(0, 1)});
  }
  std::cout << "ground truth (Fig. 2a):\n";
  truth_table.print(std::cout);

  const auto& classification = runner.nodes()[0].classification();
  ddc::io::Table est_table({"collection", "weight", "mean x", "mean y",
                            "var x", "var y", "cov", "kind"});
  std::size_t singletons = 0;
  for (std::size_t j = 0; j < classification.size(); ++j) {
    const auto& g = classification[j].summary;
    const bool singleton = ddc::linalg::max_abs(g.cov()) == 0.0;
    singletons += singleton ? 1 : 0;
    est_table.add_row({static_cast<long long>(j),
                       classification.relative_weight(j), g.mean()[0],
                       g.mean()[1], g.cov()(0, 0), g.cov()(1, 1),
                       g.cov()(0, 1),
                       std::string(singleton ? "x (singleton)" : "ellipse")});
  }
  std::cout << "\nnode 0's estimate (Fig. 2c):\n";
  est_table.print(std::cout);
  std::cout << "\nsingleton collections (the paper's x's): " << singletons
            << "\n";

  const GaussianMixture estimate =
      ddc::summaries::to_mixture(classification);
  std::cout << "component recovery error (truth vs estimate): "
            << ddc::metrics::mixture_recovery_error(truth, estimate) << "\n"
            << "normalized ISE density distance (0 = exact):   "
            << ddc::stats::normalized_ise(truth, estimate) << "\n";

  // Sanity the paper's claim "usable estimation": the heaviest three
  // estimated components should sit near the three true means.
  std::cout << "\nall-node agreement (max classification distance vs node 0): "
            << ddc::metrics::max_disagreement_vs_first<
                   ddc::summaries::GaussianPolicy>(runner.nodes())
            << "\n";

  // The figure itself, terminal edition: panel (b) the generated values,
  // panel (c) node 0's 2σ equidensity ellipses (x's = singletons).
  std::cout << "\nFig. 2b — generated input values:\n";
  ddc::io::AsciiCanvas values = ddc::io::AsciiCanvas::fit(inputs);
  values.plot_points(inputs, '.');
  values.render(std::cout);

  std::cout << "\nFig. 2c — node 0's estimate (2-sigma contours):\n";
  ddc::io::AsciiCanvas contours = ddc::io::AsciiCanvas::fit(inputs);
  for (std::size_t j = 0; j < classification.size(); ++j) {
    contours.draw_gaussian(classification[j].summary, 2.0,
                           static_cast<char>('1' + (j % 9)));
  }
  contours.render(std::cout);
  return 0;
}
