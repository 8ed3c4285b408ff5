#include <ddc/linalg/cholesky.hpp>

#include <cmath>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::linalg {
namespace {

/// Random SPD matrix A = B Bᵀ + εI.
Matrix random_spd(std::size_t n, stats::Rng& rng) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  }
  Matrix a = b * transpose(b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.1;
  return a;
}

TEST(Cholesky, ReconstructsTheInput) {
  stats::Rng rng(7);
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    const Matrix a = random_spd(n, rng);
    const Cholesky f(a);
    const Matrix reconstructed = f.lower() * transpose(f.lower());
    EXPECT_LT(max_abs(reconstructed - a), 1e-10) << "n=" << n;
  }
}

TEST(Cholesky, FactorIsLowerTriangular) {
  stats::Rng rng(8);
  const Matrix a = random_spd(4, rng);
  const Cholesky f(a);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = r + 1; c < 4; ++c) EXPECT_EQ(f.lower()(r, c), 0.0);
  }
}

TEST(Cholesky, SolveSatisfiesSystem) {
  stats::Rng rng(9);
  const Matrix a = random_spd(5, rng);
  const Cholesky f(a);
  const Vector b{1.0, -2.0, 3.0, 0.5, 4.0};
  const Vector x = f.solve(b);
  EXPECT_LT(distance2(a * x, b), 1e-9);
}

TEST(Cholesky, InverseTimesMatrixIsIdentity) {
  stats::Rng rng(10);
  const Matrix a = random_spd(4, rng);
  const Matrix inv = Cholesky(a).inverse();
  EXPECT_LT(max_abs(a * inv - Matrix::identity(4)), 1e-9);
}

TEST(Cholesky, DeterminantOfDiagonalMatrix) {
  const Matrix d = Matrix::diagonal(Vector{2.0, 3.0, 4.0});
  const Cholesky f(d);
  EXPECT_NEAR(f.det(), 24.0, 1e-12);
  EXPECT_NEAR(f.log_det(), std::log(24.0), 1e-12);
}

TEST(Cholesky, LogDetRobustToUnderflowScale) {
  // det = 1e-300² would underflow; log_det must not.
  const Matrix tiny = Matrix::diagonal(Vector{1e-300, 1e-300});
  EXPECT_NEAR(Cholesky(tiny).log_det(), 2.0 * std::log(1e-300), 1e-6);
}

TEST(Cholesky, MahalanobisMatchesExplicitForm) {
  stats::Rng rng(11);
  const Matrix a = random_spd(3, rng);
  const Cholesky f(a);
  const Vector x{1.0, 2.0, -1.0};
  const double direct = dot(x, f.inverse() * x);
  EXPECT_NEAR(f.mahalanobis_squared(x), direct, 1e-9);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  EXPECT_THROW(Cholesky(Matrix{{1.0, 2.0}, {2.0, 1.0}}), NumericalError);
}

TEST(Cholesky, RejectsZeroMatrix) {
  EXPECT_THROW(Cholesky(Matrix(2, 2)), NumericalError);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(2, 3)), ContractViolation);
}

TEST(RegularizedCholesky, HandlesZeroCovariance) {
  // The covariance of a fresh point-mass collection is exactly 0; the
  // regularized factorization must still produce something usable.
  const Cholesky f = regularized_cholesky(Matrix(2, 2));
  EXPECT_GT(f.lower()(0, 0), 0.0);
  EXPECT_TRUE(std::isfinite(f.log_det()));
}

TEST(RegularizedCholesky, NoJitterWhenAlreadyPd) {
  const Matrix a{{2.0, 0.0}, {0.0, 2.0}};
  const Cholesky f = regularized_cholesky(a);
  EXPECT_NEAR(f.det(), 4.0, 1e-12);
}

TEST(SpdHelpers, InverseAndDet) {
  const Matrix a{{4.0, 0.0}, {0.0, 9.0}};
  EXPECT_LT(max_abs(spd_inverse(a) - Matrix{{0.25, 0.0}, {0.0, 1.0 / 9.0}}),
            1e-12);
  EXPECT_NEAR(spd_det(a), 36.0, 1e-9);
}

}  // namespace
}  // namespace ddc::linalg
