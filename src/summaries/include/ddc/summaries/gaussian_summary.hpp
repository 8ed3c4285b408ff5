// Gaussian summaries — the paper's GM instantiation (Section 5.1).
//
// A collection is summarized by ⟨µ, Σ⟩ (its weighted mean and population
// covariance); together with the weight this is a weighted Gaussian, and a
// classification is a Gaussian Mixture. mergeSet is moment matching, which
// equals summarizing the merged value multiset exactly (R4), and dS is the
// L2 distance between means "as in the centroids algorithm" (Section 5.1).
#pragma once

#include <vector>

#include <ddc/core/collection.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/stats/gaussian.hpp>
#include <ddc/stats/mixture.hpp>

namespace ddc::summaries {

/// SummaryPolicy for Gaussian-Mixture classification.
struct GaussianPolicy {
  using Value = linalg::Vector;
  using Summary = stats::Gaussian;

  /// Section 5.1 valToSummary: mean = val, zero covariance matrix.
  [[nodiscard]] static Summary val_to_summary(const Value& value) {
    return stats::Gaussian::point_mass(value);
  }

  /// Section 5.1 mergeSet: moment-matched merge (law of total
  /// mean/covariance). Scale-invariant in weights (R3) and exact (R4).
  /// Runs stats::moment_match_rows on the parts in place — the packed
  /// moment match the SoA engine's GM pool merge and the EM M step run,
  /// so the engines' merges agree bit for bit.
  [[nodiscard]] static Summary merge_set(
      const std::vector<core::WeightedSummary<Summary>>& parts);

  /// dS: Euclidean distance between the means (the paper defines dS for
  /// the GM instantiation exactly as in the centroids algorithm).
  [[nodiscard]] static double distance(const Summary& a, const Summary& b) {
    return linalg::distance2(a.mean(), b.mean());
  }

  /// f applied to a mixture-space vector: weighted mean + population
  /// covariance of the input values. Used to verify Lemma 1.
  [[nodiscard]] static Summary summarize_mixture(
      const std::vector<Value>& inputs, const linalg::Vector& aux);

  /// Approximate equality of mean and covariance, for auditing.
  [[nodiscard]] static bool approx_equal(const Summary& a, const Summary& b,
                                         double tol);
};

/// View of a Gaussian classification as a stats::GaussianMixture (with
/// real-valued weights normalized from quanta). The bridge between the
/// protocol's wire types and the probabilistic toolkit.
[[nodiscard]] stats::GaussianMixture to_mixture(
    const core::Classification<stats::Gaussian>& classification);

}  // namespace ddc::summaries
