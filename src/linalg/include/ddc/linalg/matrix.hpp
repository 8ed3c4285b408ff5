// Dense dynamic-size real matrix (row-major).
//
// Covariance matrices in the Gaussian-Mixture summary (Section 5.1) are
// small d×d symmetric matrices; everything here is sized and written for
// that regime (no blocking, no expression templates — clarity first, and
// at d ≤ 16 the straightforward loops are as fast as anything).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/linalg/vector.hpp>

namespace ddc::linalg {

/// Dense row-major real matrix with value semantics.
class Matrix {
 public:
  /// Empty (0×0) matrix.
  Matrix() = default;

  /// Zero matrix of shape `rows × cols`.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), elems_(rows * cols, 0.0) {}

  /// Matrix of shape `rows × cols` with every entry equal to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), elems_(rows * cols, fill) {}

  /// Matrix from nested row lists, e.g. `Matrix{{1, 0}, {0, 1}}`.
  /// All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return elems_.empty(); }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  /// Entry access (checked).
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    DDC_EXPECTS(r < rows_ && c < cols_);
    return elems_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    DDC_EXPECTS(r < rows_ && c < cols_);
    return elems_[r * cols_ + c];
  }

  /// Row `r` copied into a Vector.
  [[nodiscard]] Vector row(std::size_t r) const;
  /// Column `c` copied into a Vector.
  [[nodiscard]] Vector col(std::size_t c) const;

  [[nodiscard]] const std::vector<double>& data() const noexcept { return elems_; }
  /// Mutable raw storage — the fixed-dimension kernels (linalg/kernels.hpp)
  /// write factor/inverse results straight into Matrix storage.
  [[nodiscard]] std::vector<double>& data() noexcept { return elems_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;
  Matrix& operator/=(double s);

  friend bool operator==(const Matrix&, const Matrix&) = default;

  /// Identity matrix of order `n`.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Diagonal matrix from the components of `d`.
  [[nodiscard]] static Matrix diagonal(const Vector& d);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> elems_;
};

[[nodiscard]] Matrix operator+(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator-(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator*(Matrix m, double s);
[[nodiscard]] Matrix operator*(double s, Matrix m);
[[nodiscard]] Matrix operator/(Matrix m, double s);

/// Matrix product. Requires `a.cols() == b.rows()`.
[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix–vector product. Requires `m.cols() == v.dim()`.
[[nodiscard]] Vector operator*(const Matrix& m, const Vector& v);

/// Transpose.
[[nodiscard]] Matrix transpose(const Matrix& m);

/// Outer product `a bᵀ` (used by moment-matching covariance merges).
[[nodiscard]] Matrix outer(const Vector& a, const Vector& b);

/// Sum of diagonal entries. Requires a square matrix.
[[nodiscard]] double trace(const Matrix& m);

/// `trace(a * b)` without materializing the product — O(n²) instead of
/// O(n³) plus an allocation. Bit-identical to `trace(a * b)`: the diagonal
/// entries accumulate in the same order (ascending k, zero a(i,k) terms
/// skipped) as operator*'s inner loop, then sum in ascending row order.
/// Requires `a.cols() == b.rows()` and a square product.
[[nodiscard]] double trace_product(const Matrix& a, const Matrix& b);

/// Largest absolute entry (max norm) — convenient for approximate
/// comparisons in tests.
[[nodiscard]] double max_abs(const Matrix& m) noexcept;

/// True iff `m` is square and symmetric to tolerance `tol` (relative to the
/// magnitude of the entries involved).
[[nodiscard]] bool is_symmetric(const Matrix& m, double tol = 1e-12) noexcept;

/// is_symmetric on packed row-major n×n storage.
[[nodiscard]] bool is_symmetric(const double* a, std::size_t n,
                                double tol) noexcept;

/// `(m + mᵀ) / 2` — removes rounding asymmetry from a nominally symmetric
/// matrix. Requires a square matrix.
[[nodiscard]] Matrix symmetrize(const Matrix& m);

/// symmetrize in place on packed row-major n×n storage: every entry
/// becomes 0.5·(aᵢⱼ + aⱼᵢ) of the original entries, bit for bit.
void symmetrize(double* a, std::size_t n) noexcept;

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace ddc::linalg
