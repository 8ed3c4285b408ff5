#include <ddc/linalg/cholesky.hpp>

#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include <ddc/common/error.hpp>
#include <ddc/linalg/kernels.hpp>

namespace ddc::linalg {

namespace {

/// Small-dimension scratch: stack storage for the paper-scale d ≤ 8, heap
/// beyond (the mixture-space auxiliary vectors can be R^n).
struct Scratch {
  explicit Scratch(std::size_t n) {
    if (n > stack.size()) {
      heap.resize(n);
      ptr = heap.data();
    } else {
      ptr = stack.data();
    }
  }
  std::array<double, 16> stack{};
  std::vector<double> heap;
  double* ptr = nullptr;
};

}  // namespace

Cholesky::Cholesky(const Matrix& a) {
  DDC_EXPECTS(a.square());
  const std::size_t n = a.rows();
  l_ = Matrix(n, n);
  const bool ok = kernels::dispatch_dim(n, [&](auto d) {
    return kernels::cholesky_factor<d()>(a.data().data(), l_.data().data(), n);
  });
  if (!ok) throw_numerical_error("Cholesky: matrix is not positive definite");
}

Vector Cholesky::solve_lower(const Vector& b) const {
  DDC_EXPECTS(b.dim() == dim());
  const std::size_t n = dim();
  Vector y(n);
  kernels::dispatch_dim(n, [&](auto d) {
    kernels::solve_lower<d()>(l_.data().data(), b.data().data(),
                              y.data().data(), n);
  });
  return y;
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = dim();
  Vector y = solve_lower(b);
  // Back substitution with Lᵀ.
  Vector x(n);
  kernels::dispatch_dim(n, [&](auto d) {
    kernels::solve_upper_transposed<d()>(l_.data().data(), y.data().data(),
                                         x.data().data(), n);
  });
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  DDC_EXPECTS(b.rows() == dim());
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector xc = solve(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = xc[r];
  }
  return x;
}

Matrix Cholesky::inverse() const {
  // Column-by-column solve of the identity through the fixed-d kernel —
  // the same forward/backward substitutions as solve(Matrix::identity)
  // performed, without materializing the identity or per-column Vectors.
  const std::size_t n = dim();
  Matrix inv(n, n);
  Scratch scratch(2 * n);
  kernels::dispatch_dim(n, [&](auto d) {
    kernels::inverse_from_factor<d()>(l_.data().data(), inv.data().data(),
                                      scratch.ptr, n);
  });
  return inv;
}

double Cholesky::log_det() const noexcept {
  const std::size_t n = dim();
  return kernels::dispatch_dim(n, [&](auto d) {
    return kernels::log_det_from_factor<d()>(l_.data().data(), n);
  });
}

double Cholesky::det() const noexcept { return std::exp(log_det()); }

double Cholesky::mahalanobis_squared(const Vector& x) const {
  // xᵀ A⁻¹ x = ‖L⁻¹ x‖² — one forward substitution, no explicit inverse.
  DDC_EXPECTS(x.dim() == dim());
  const std::size_t n = dim();
  Scratch y(n);
  return kernels::dispatch_dim(n, [&](auto d) {
    return kernels::mahalanobis_squared<d()>(l_.data().data(),
                                             x.data().data(), y.ptr, n);
  });
}

Cholesky regularized_cholesky(const Matrix& a) {
  DDC_EXPECTS(a.square());
  const std::size_t n = a.rows();
  Matrix l(n, n);
  Scratch jittered(n * n);
  const bool ok = kernels::dispatch_dim(n, [&](auto d) {
    return kernels::regularized_cholesky_factor<d()>(
        a.data().data(), l.data().data(), jittered.ptr, n);
  });
  if (!ok) throw_jitter_exhausted();
  return Cholesky(Cholesky::Adopt{}, std::move(l));
}

void throw_jitter_exhausted() {
  throw_numerical_error(
      "regularized_cholesky: matrix not positive definite even after "
      "maximal jitter");
}

Matrix spd_inverse(const Matrix& a) { return Cholesky(a).inverse(); }

double spd_det(const Matrix& a) { return Cholesky(a).det(); }

}  // namespace ddc::linalg
