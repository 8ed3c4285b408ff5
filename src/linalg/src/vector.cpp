#include <ddc/linalg/vector.hpp>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>

#include <ddc/common/error.hpp>
#include <ddc/linalg/kernels.hpp>

namespace ddc::linalg {

Vector& Vector::operator+=(const Vector& rhs) {
  DDC_EXPECTS(dim() == rhs.dim());
  double* out = ptr();
  const double* in = rhs.ptr();
  for (std::size_t i = 0; i < dim_; ++i) out[i] += in[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  DDC_EXPECTS(dim() == rhs.dim());
  double* out = ptr();
  const double* in = rhs.ptr();
  for (std::size_t i = 0; i < dim_; ++i) out[i] -= in[i];
  return *this;
}

Vector& Vector::operator*=(double s) noexcept {
  for (double& e : *this) e *= s;
  return *this;
}

Vector& Vector::operator/=(double s) {
  DDC_EXPECTS(s != 0.0);
  for (double& e : *this) e /= s;
  return *this;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector v, double s) { return v *= s; }
Vector operator*(double s, Vector v) { return v *= s; }
Vector operator/(Vector v, double s) { return v /= s; }
Vector operator-(Vector v) { return v *= -1.0; }

double dot(const Vector& a, const Vector& b) {
  DDC_EXPECTS(a.dim() == b.dim());
  const std::size_t n = a.dim();
  return kernels::dispatch_dim(n, [&](auto d) {
    return kernels::dot<d()>(a.data().data(), b.data().data(), n);
  });
}

double norm2(const Vector& v) noexcept {
  double acc = 0.0;
  for (double e : v) acc += e * e;
  return std::sqrt(acc);
}

double norm1(const Vector& v) noexcept {
  double acc = 0.0;
  for (double e : v) acc += std::abs(e);
  return acc;
}

double norm_inf(const Vector& v) noexcept {
  double acc = 0.0;
  for (double e : v) acc = std::max(acc, std::abs(e));
  return acc;
}

double distance2(const Vector& a, const Vector& b) {
  DDC_EXPECTS(a.dim() == b.dim());
  const std::size_t n = a.dim();
  return kernels::dispatch_dim(n, [&](auto d) {
    return kernels::distance2<d()>(a.data().data(), b.data().data(), n);
  });
}

double angle_between(const Vector& a, const Vector& b) {
  const double na = norm2(a);
  const double nb = norm2(b);
  if (na == 0.0 || nb == 0.0) {
    throw_numerical_error("angle_between: zero vector has no direction");
  }
  // Clamp to [-1, 1]: rounding can push the cosine marginally outside.
  const double c = std::clamp(dot(a, b) / (na * nb), -1.0, 1.0);
  return std::acos(c);
}

Vector normalized(const Vector& v) {
  const double n = norm2(v);
  if (n == 0.0) throw_numerical_error("normalized: zero vector");
  return v / n;
}

Vector unit_vector(std::size_t dim, std::size_t i) {
  DDC_EXPECTS(i < dim);
  Vector e(dim);
  e[i] = 1.0;
  return e;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.dim(); ++i) {
    if (i > 0) os << ", ";
    os << v[i];
  }
  return os << ']';
}

}  // namespace ddc::linalg
