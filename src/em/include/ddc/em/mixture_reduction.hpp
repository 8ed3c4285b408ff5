// Gaussian mixture reduction: approximate an l-component mixture by a
// k-component one (l > k), reporting which input components were merged.
//
// This is the computational core of the paper's GM partition step
// (Section 5.2): finding the Maximum-Likelihood k-GM for an l-GM is
// NP-hard, so the paper "follows common practice and approximates it with
// the Expectation Maximization algorithm". We implement that EM reduction,
// plus Runnalls-style greedy pairwise merging (Salmond's tradition of
// mixture-reduction algorithms [18]) as an ablation baseline.
// Both round engines run the packed reduce_em_rows (one EM, one set of
// doubles); reduce_em adapts it to a GaussianMixture.
#pragma once

#include <cstddef>
#include <vector>

#include <ddc/core/policy.hpp>
#include <ddc/stats/mixture.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::em {

/// Result of a mixture reduction.
struct ReductionResult {
  /// The reduced mixture (≤ k components; dead components are dropped).
  stats::GaussianMixture mixture;
  /// groups[x] lists the indices of input components merged into output
  /// component x; together the groups partition {0, …, l−1}.
  std::vector<std::vector<std::size_t>> groups;
  /// EM iterations executed (0 for greedy reducers and pass-throughs).
  std::size_t iterations = 0;
  /// Final surrogate objective: Σᵢ wᵢ log Σⱼ πⱼ exp(E_{Nᵢ}[log Nⱼ]),
  /// normalized by total weight. NaN for greedy reducers.
  double objective = 0.0;
};

/// Options for EM mixture reduction.
struct ReductionOptions {
  std::size_t max_iterations = 50;
  /// Stop when the surrogate objective improves by less than this.
  double tol = 1e-7;
  /// Number of independent EM restarts; the best objective wins. Restarts
  /// beyond the first use random seeding (requires rng).
  std::size_t restarts = 1;
};

/// Caller-owned scratch of reduce_em_rows. No buffer's capacity shrinks,
/// so a workspace reused across calls stops allocating once it has served
/// its largest input.
struct EmWorkspace {
  /// The last call's inputs as Gaussians hold them (covariances through
  /// the constructor's symmetrize pass): means l×d, covariances l×d².
  std::vector<double> means;
  std::vector<double> covs;
  /// Part list (l entries) and kernel scratch (8·d + 4·d² doubles), both
  /// free for callers between calls: the GM pool merge uses them.
  std::vector<stats::PackedGaussian> parts;
  std::vector<double> scratch;
  std::vector<double> model_weights;  // the model: ≤ k components
  std::vector<double> model_means;
  std::vector<double> model_covs;
  std::vector<double> log_priors;
  std::vector<double> scores;  // m × l
  std::vector<double> resp;    // l × m
  std::vector<double> draw_weights;  // random seeding's discrete weights
  std::vector<std::size_t> seeds;
  std::vector<std::size_t> assignment;
  std::vector<std::size_t> best_assignment;
};

/// What reduce_em_rows reports besides the groups.
struct RowsReduction {
  std::size_t groups = 0;  // groups[0 .. groups) hold the grouping
  std::size_t iterations = 0;
  double objective = 0.0;
};

/// EM reduction of l packed inputs to at most `k` components (Section
/// 5.2). Input i is `rows + i·(d + d²)` (mean, then row-major covariance:
/// the pool layout) with weight `weights[i]` > 0.
///
/// The E step scores input component i against model component j with
/// πⱼ·exp(E_{Nᵢ}[log Nⱼ]) — the natural generalization of point
/// responsibilities to Gaussian-valued "data points" — and the M step
/// moment-matches each model component to its responsibility-weighted
/// inputs (scoring floors the model covariances). Restart 0 is seeded by
/// a maximin (farthest-point) traversal of the means from the heaviest
/// input; later restarts sample seeds by weight from `*rng`, which may be
/// null only when options.restarts == 1. The best objective wins; each
/// input is hard-assigned to its argmax model component, and the nonempty
/// groups land in groups[0 .. count) in model order (entries past the
/// count are scratch). If l ≤ k the grouping is the identity, with 0
/// iterations and a NaN objective.
[[nodiscard]] RowsReduction reduce_em_rows(
    const double* rows, const double* weights, std::size_t l, std::size_t d,
    std::size_t k, EmWorkspace& ws, core::Grouping& groups, stats::Rng* rng,
    const ReductionOptions& options = {});

/// reduce_em_rows on a GaussianMixture: packs the components, reduces
/// them and moment-matches each group (singleton groups keep their
/// component unchanged).
[[nodiscard]] ReductionResult reduce_em(const stats::GaussianMixture& input,
                                        std::size_t k, stats::Rng& rng,
                                        const ReductionOptions& options = {});

/// Greedy pairwise reduction: repeatedly merges the pair of components
/// with the smallest Runnalls upper bound on the KL discrimination
/// B(i,j) = ½[(wᵢ+wⱼ) log|Σ_merged| − wᵢ log|Σᵢ| − wⱼ log|Σⱼ|],
/// until at most `k` components remain.
[[nodiscard]] ReductionResult reduce_runnalls(const stats::GaussianMixture& input,
                                              std::size_t k);

/// Greedy nearest-centroid reduction: repeatedly merges the two components
/// whose *means* are closest (exactly Algorithm 2's partition heuristic
/// lifted to Gaussians). Ablation baseline showing what ignoring
/// covariance information costs.
[[nodiscard]] ReductionResult reduce_nearest_means(
    const stats::GaussianMixture& input, std::size_t k);

}  // namespace ddc::em
