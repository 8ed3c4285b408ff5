// Multivariate Gaussian model.
//
// The GM instantiation (paper Section 5.1) summarizes a collection by
// ⟨µ, Σ⟩; this class is that summary's mathematical payload: density
// evaluation, sampling, and the divergences used by partition policies.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include <ddc/linalg/cholesky.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/matrix.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::stats {

/// A d-dimensional Gaussian N(µ, Σ). Σ must be symmetric positive
/// semi-definite; operations that need Σ⁻¹ regularize degenerate Σ
/// internally (a fresh single-value collection legitimately has Σ = 0).
class Gaussian {
 public:
  /// Standard normal of the given dimension: N(0, I).
  explicit Gaussian(std::size_t dim);

  /// N(mean, cov). Requires cov to be square, symmetric (to 1e-9·scale) and
  /// of order mean.dim().
  Gaussian(linalg::Vector mean, linalg::Matrix cov);

  /// A point mass at `mean` represented as N(mean, 0) — the summary of a
  /// one-value collection.
  [[nodiscard]] static Gaussian point_mass(linalg::Vector mean);

  /// Spherical Gaussian N(mean, s²·I).
  [[nodiscard]] static Gaussian spherical(linalg::Vector mean, double stddev);

  [[nodiscard]] std::size_t dim() const noexcept { return mean_.dim(); }
  [[nodiscard]] const linalg::Vector& mean() const noexcept { return mean_; }
  [[nodiscard]] const linalg::Matrix& cov() const noexcept { return cov_; }

  /// Probability density at `x`. Degenerate Σ is regularized with a small
  /// jitter so the density is finite and usable for classification
  /// decisions.
  [[nodiscard]] double pdf(const linalg::Vector& x) const;

  /// Natural log of pdf(x) — robust to underflow.
  [[nodiscard]] double log_pdf(const linalg::Vector& x) const;

  /// Squared Mahalanobis distance (x−µ)ᵀ Σ⁻¹ (x−µ) (jittered if needed).
  [[nodiscard]] double mahalanobis_squared(const linalg::Vector& x) const;

  /// Draws a sample: µ + L z with L Lᵀ = Σ and z standard normal.
  [[nodiscard]] linalg::Vector sample(Rng& rng) const;

  /// Equality of the model parameters (the cached factorization is
  /// deliberately excluded).
  friend bool operator==(const Gaussian& a, const Gaussian& b) {
    return a.mean_ == b.mean_ && a.cov_ == b.cov_;
  }

 private:
  linalg::Vector mean_;
  linalg::Matrix cov_;

  /// Lazily computed factorization shared by pdf/log_pdf/sample.
  [[nodiscard]] const linalg::Cholesky& factor() const;
  mutable std::optional<linalg::Cholesky> factor_;
};

/// Kullback–Leibler divergence KL(a‖b) between Gaussians of equal
/// dimension. Degenerate covariances are jitter-regularized.
[[nodiscard]] double kl_divergence(const Gaussian& a, const Gaussian& b);

/// Symmetrized KL: KL(a‖b) + KL(b‖a).
[[nodiscard]] double symmetric_kl(const Gaussian& a, const Gaussian& b);

/// Bhattacharyya distance — bounded, symmetric; a convenient merge
/// criterion for mixture reduction.
[[nodiscard]] double bhattacharyya(const Gaussian& a, const Gaussian& b);

/// Expected log-density E_{x~a}[log b(x)] — the quantity the EM partition
/// uses as a soft-assignment score when the "data points" are themselves
/// Gaussians (Section 5.2).
[[nodiscard]] double expected_log_pdf(const Gaussian& a, const Gaussian& b);

/// Precomputed invariants of `expected_log_pdf(·, model)`: the Cholesky
/// factor, inverse, and log-determinant of the model covariance depend
/// only on the model, so scoring many inputs factorizes once. `score(a)`
/// is bit-identical to `expected_log_pdf(a, model)` (the free function is
/// implemented through this class). The invariants are packed flat
/// ([mean | L | Σ⁻¹], row-major) for the fixed-dimension kernels
/// (linalg/kernels.hpp) and the SIMD batch kernels (linalg/simd.hpp).
class ExpectedLogPdfScorer {
 public:
  explicit ExpectedLogPdfScorer(const Gaussian& model);

  [[nodiscard]] std::size_t dim() const noexcept { return d_; }

  /// E_{x~a}[log model(x)]. Requires `a.dim() == model.dim()`.
  [[nodiscard]] double score(const Gaussian& a) const;

  /// The invariants as the batch kernels read them (simd::ScoreBatchFn):
  /// a kernel's out[i] is bit-identical to `score(input i)` on every tier.
  /// Valid while the scorer lives.
  [[nodiscard]] linalg::kernels::ScorerData view() const noexcept;

 private:

  std::size_t d_ = 0;
  double base_ = 0.0;  // d·log 2π + log|Σ_model|, input-independent
  /// Packed model invariants: mean (d), then L (d²), then Σ⁻¹ (d²).
  std::vector<double> store_;
  /// Kernel workspace (8·d doubles) — scoring is logically const.
  mutable std::vector<double> scratch_;
};

/// Moment-matched merge of weighted Gaussians: the single Gaussian with the
/// mean and covariance of the mixture Σᵢ wᵢ N(µᵢ, Σᵢ). This is exactly the
/// paper's GM `mergeSet`. Requires at least one component and positive
/// total weight.
struct WeightedGaussian {
  double weight;
  Gaussian gaussian;
};
[[nodiscard]] Gaussian moment_match(const std::vector<WeightedGaussian>& parts);

/// A weighted Gaussian on packed storage: mean (d), covariance (d²,
/// row-major) — the layout of the SoA pools and of the EM workspace.
struct PackedGaussian {
  double weight;
  const double* mean;
  const double* cov;
};

/// Moment matching on packed storage, behind moment_match, merge_set, the
/// EM and the GM pool merge: mean = Σ sₜµₜ, then Σ = Σ sₜ(Σₜ + δₜδₜᵀ)
/// (sₜ = wₜ/W, δₜ = µₜ − mean), then one symmetrize pass; follow with a
/// Gaussian construction or symmetrize_checked. `scratch` holds d
/// doubles. Requires at least one part and every weight > 0.
void moment_match_rows(std::span<const PackedGaussian> parts, double* mean,
                       double* cov, double* scratch, std::size_t d);

/// moment_match_rows into a Gaussian of dimension d.
[[nodiscard]] Gaussian moment_match(std::span<const PackedGaussian> parts,
                                    std::size_t d);

/// The Gaussian constructor's covariance step, in place on packed d×d
/// storage (symmetry to 1e-9·scale required, then one symmetrize pass):
/// packed code calls it where the object path constructs a Gaussian.
void symmetrize_checked(double* cov, std::size_t d);

}  // namespace ddc::stats
