#include <ddc/linalg/matrix.hpp>

#include <algorithm>
#include <cmath>
#include <ostream>

#include <ddc/linalg/kernels.hpp>

namespace ddc::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() == 0 ? 0 : rows.begin()->size()) {
  elems_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    DDC_EXPECTS(r.size() == cols_);
    elems_.insert(elems_.end(), r.begin(), r.end());
  }
}

Vector Matrix::row(std::size_t r) const {
  DDC_EXPECTS(r < rows_);
  Vector out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

Vector Matrix::col(std::size_t c) const {
  DDC_EXPECTS(c < cols_);
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  DDC_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < elems_.size(); ++i) elems_[i] += rhs.elems_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  DDC_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < elems_.size(); ++i) elems_[i] -= rhs.elems_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& e : elems_) e *= s;
  return *this;
}

Matrix& Matrix::operator/=(double s) {
  DDC_EXPECTS(s != 0.0);
  for (double& e : elems_) e /= s;
  return *this;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.dim(), d.dim());
  for (std::size_t i = 0; i < d.dim(); ++i) m(i, i) = d[i];
  return m;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }
Matrix operator/(Matrix m, double s) { return m /= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  DDC_EXPECTS(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Vector operator*(const Matrix& m, const Vector& v) {
  DDC_EXPECTS(m.cols() == v.dim());
  Vector out(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) acc += m(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out(j, i) = m(i, j);
  }
  return out;
}

Matrix outer(const Vector& a, const Vector& b) {
  Matrix out(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    for (std::size_t j = 0; j < b.dim(); ++j) out(i, j) = a[i] * b[j];
  }
  return out;
}

double trace(const Matrix& m) {
  DDC_EXPECTS(m.square());
  double acc = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) acc += m(i, i);
  return acc;
}

double trace_product(const Matrix& a, const Matrix& b) {
  DDC_EXPECTS(a.cols() == b.rows());
  DDC_EXPECTS(a.rows() == b.cols());
  // Mirrors operator*'s accumulation of out(i, i): ascending k with the
  // same zero-coefficient skip, so the result matches trace(a * b) bit
  // for bit (the determinism goldens depend on that). Square inputs (the
  // covariance hot path) go through the d = 1..4 unrolled kernel.
  if (a.square()) {
    const std::size_t n = a.rows();
    return kernels::dispatch_dim(n, [&](auto d) {
      return kernels::trace_product<d()>(a.data().data(), b.data().data(), n);
    });
  }
  double total = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      acc += aik * b(k, i);
    }
    total += acc;
  }
  return total;
}

double max_abs(const Matrix& m) noexcept {
  double acc = 0.0;
  for (double e : m.data()) acc = std::max(acc, std::abs(e));
  return acc;
}

bool is_symmetric(const Matrix& m, double tol) noexcept {
  return m.square() && is_symmetric(m.data().data(), m.rows(), tol);
}

bool is_symmetric(const double* a, std::size_t n, double tol) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double aij = a[i * n + j];
      const double aji = a[j * n + i];
      const double scale = std::max({1.0, std::abs(aij), std::abs(aji)});
      if (std::abs(aij - aji) > tol * scale) return false;
    }
  }
  return true;
}

Matrix symmetrize(const Matrix& m) {
  DDC_EXPECTS(m.square());
  Matrix out = m;
  symmetrize(out.data().data(), out.rows());
  return out;
}

void symmetrize(double* a, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    a[i * n + i] = 0.5 * (a[i * n + i] + a[i * n + i]);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double aij = a[i * n + j];
      const double aji = a[j * n + i];
      a[i * n + j] = 0.5 * (aij + aji);
      a[j * n + i] = 0.5 * (aji + aij);
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << '[';
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (i > 0) os << "; ";
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j > 0) os << ", ";
      os << m(i, j);
    }
  }
  return os << ']';
}

}  // namespace ddc::linalg
