// Cholesky (LLᵀ) factorization of symmetric positive-definite matrices.
//
// Everything the Gaussian summary needs — densities, log-determinants,
// Mahalanobis distances, multivariate-normal sampling — reduces to one
// Cholesky factorization plus triangular solves.
#pragma once

#include <utility>

#include <ddc/linalg/matrix.hpp>
#include <ddc/linalg/vector.hpp>

namespace ddc::linalg {

/// Cholesky factorization `A = L Lᵀ` with `L` lower-triangular.
///
/// Construction throws ddc::NumericalError if `A` is not (numerically)
/// positive definite. Callers that must cope with degenerate covariance
/// matrices (e.g. a collection holding a single value has Σ = 0) should
/// regularize first — see `regularized_cholesky`.
class Cholesky {
 public:
  /// Factorizes the symmetric positive-definite matrix `a`.
  /// Only the lower triangle of `a` is read.
  explicit Cholesky(const Matrix& a);

  /// Order of the factorized matrix.
  [[nodiscard]] std::size_t dim() const noexcept { return l_.rows(); }

  /// The lower-triangular factor L.
  [[nodiscard]] const Matrix& lower() const noexcept { return l_; }

  /// Solves `A x = b`. Requires `b.dim() == dim()`.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves `A X = B` column-by-column. Requires `B.rows() == dim()`.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Solves `L y = b` (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  /// The inverse `A⁻¹` (symmetric).
  [[nodiscard]] Matrix inverse() const;

  /// `log det A = 2 Σ log L(i,i)`; numerically robust even when `det A`
  /// would underflow, which matters for sharp Gaussian summaries.
  [[nodiscard]] double log_det() const noexcept;

  /// `det A` (may under/overflow; prefer log_det()).
  [[nodiscard]] double det() const noexcept;

  /// Squared Mahalanobis distance `xᵀ A⁻¹ x`.
  [[nodiscard]] double mahalanobis_squared(const Vector& x) const;

 private:
  friend Cholesky regularized_cholesky(const Matrix& a);
  /// Adopts an already computed factor.
  struct Adopt {};
  Cholesky(Adopt, Matrix l) : l_(std::move(l)) {}

  Matrix l_;
};

/// Cholesky of `A`, or else of `A + εI` for ε = 1e-9, 1e-8, … ≤ 1e3,
/// the first that succeeds (kernels::regularized_cholesky_factor).
/// Handles the degenerate covariances that legitimately occur in the
/// protocol: a fresh collection summarizing one input value has an
/// exactly-zero covariance matrix. Throws ddc::NumericalError
/// (throw_jitter_exhausted) if even `A + 1e3·I` fails.
[[nodiscard]] Cholesky regularized_cholesky(const Matrix& a);

/// Throws the ddc::NumericalError of a matrix that stays indefinite
/// through the whole jitter sequence.
[[noreturn]] void throw_jitter_exhausted();

/// Convenience: inverse of an SPD matrix via Cholesky.
[[nodiscard]] Matrix spd_inverse(const Matrix& a);

/// Convenience: determinant of an SPD matrix via Cholesky.
[[nodiscard]] double spd_det(const Matrix& a);

}  // namespace ddc::linalg
