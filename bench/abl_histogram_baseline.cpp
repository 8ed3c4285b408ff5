// Ablation — histogram gossip (related-work style) vs GM classification.
//
// The paper contrasts itself with gossip histogram estimators (Haridasan &
// van Renesse; Sacha et al.): those are 1-D only and, with fixed bins,
// "small sets of distant values" lose their identity inside a bin. Both
// claims are made concrete here. The histogram estimator is itself an
// instantiation of the generic algorithm (HistogramPolicy, k = 1 — one
// histogram describing everything), which is a nice illustration of the
// framework's breadth.
//
// Workload: 990 values ~ N(0,1) plus a tight far cluster of 10 values near
// x₀. We compare (a) each method's estimate of the far cluster's mean and
// (b) wire bytes per message.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/partition/greedy.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/histogram_summary.hpp>
#include <ddc/wire/serialize.hpp>

#include "bench_util.hpp"

namespace {

using Binning = ddc::summaries::DefaultBinning;
using HistogramPolicy = ddc::summaries::HistogramPolicy<Binning>;
using HistogramNode =
    ddc::gossip::ClassifierNode<HistogramPolicy,
                                ddc::partition::GreedyDistancePartition<HistogramPolicy>>;

}  // namespace

int main() {
  const std::size_t n = 1000;
  const std::size_t n_far = 10;

  std::cout << "=== Ablation: histogram gossip vs GM classification ===\n\n";

  // Sweep the far cluster across positions inside a bin and at a bin edge
  // (bin width here is 1.0, bins [-32, 32)); each position is an
  // independent pair of runs, fanned across the bench pool.
  const std::vector<double> positions = {25.10, 25.48, 24.99, 20.50};
  const auto rows = ddc::bench::sweep(positions.size(), [&](std::size_t pi) {
    const double x0 = positions[pi];
    ddc::stats::Rng rng(140);
    std::vector<double> scalars;
    std::vector<ddc::linalg::Vector> vectors;
    for (std::size_t i = 0; i < n - n_far; ++i) {
      const double v = rng.normal();
      scalars.push_back(v);
      vectors.push_back(ddc::linalg::Vector{v});
    }
    for (std::size_t i = 0; i < n_far; ++i) {
      const double v = rng.normal(x0, 0.02);
      scalars.push_back(v);
      vectors.push_back(ddc::linalg::Vector{v});
    }

    // GM classifier, k = 2.
    ddc::sim::EngineConfig config;
    config.k = 2;
    config.protocol_seed = 141;
    auto gm = ddc::shard::make_gm_round_runner(ddc::sim::Topology::complete(n),
                                               vectors, config);
    gm.run_rounds(40);
    // The far collection is the lighter of the two.
    const auto& classification = gm.nodes()[0].classification();
    double gm_estimate = 0.0;
    double best_weight = 2.0;
    for (std::size_t j = 0; j < classification.size(); ++j) {
      if (classification.relative_weight(j) < best_weight) {
        best_weight = classification.relative_weight(j);
        gm_estimate = classification[j].summary.mean()[0];
      }
    }

    // Histogram gossip, k = 1 (one histogram summarizing all values).
    std::vector<HistogramNode> hist_nodes;
    for (std::size_t i = 0; i < n; ++i) {
      ddc::core::ClassifierOptions options;
      options.k = 1;
      hist_nodes.emplace_back(
          scalars[i], ddc::partition::GreedyDistancePartition<HistogramPolicy>{},
          options);
    }
    ddc::shard::ShardEngine<HistogramNode> hist(
        ddc::sim::Topology::complete(n), std::move(hist_nodes));
    hist.run_rounds(40);
    // Far-cluster estimate from the histogram: mass-weighted mean of bins
    // beyond x = 10 (everything out there belongs to the far cluster).
    const auto& h = hist.nodes()[0].classification()[0].summary;
    double far_mass = 0.0;
    double far_mean = 0.0;
    for (std::size_t b = 0; b < h.bins(); ++b) {
      if (h.bin_center(b) > 10.0 && h.mass()[b] > 0.0) {
        far_mass += h.mass()[b];
        far_mean += h.mass()[b] * h.bin_center(b);
      }
    }
    const double hist_estimate = far_mass > 0.0 ? far_mean / far_mass : 0.0;

    const std::size_t gm_bytes =
        ddc::wire::encode_classification(gm.nodes()[0].prepare_message()).size();
    const std::size_t hist_bytes =
        ddc::wire::encode_classification(hist.nodes()[0].prepare_message()).size();

    return std::vector<double>{x0, std::abs(gm_estimate - x0),
                               std::abs(hist_estimate - x0),
                               static_cast<double>(gm_bytes),
                               static_cast<double>(hist_bytes)};
  });

  ddc::io::Table table({"far-cluster center", "GM estimate error",
                        "histogram estimate error", "GM msg bytes",
                        "hist msg bytes"});
  for (const auto& row : rows) {
    table.add_row({row[0], row[1], row[2], static_cast<long long>(row[3]),
                   static_cast<long long>(row[4])});
  }
  table.print(std::cout);
  std::cout << "\n(the histogram's error is bounded below by its bin "
               "quantization and its message carries every bin; the GM "
               "summary names the far cluster's mean exactly in ~100 bytes "
               "— and generalizes beyond 1-D, which histograms do not)\n";
  return 0;
}
