// Dense dynamic-size real vector.
//
// The Gaussian-Mixture instantiation of the paper works in R^d for small d
// (the evaluation uses d = 2), and the auxiliary mixture-space vectors of
// Section 4.2 live in R^n.  A simple contiguous double vector with value
// semantics covers both uses; all operations are bounds-checked through
// contracts.
//
// Up to two components live inline: the storage is a union of a heap
// pointer and two doubles, so the centroid benchmark's d = 1 and the
// paper's d = 2 summaries are copied, split and merged without touching
// the heap, while a Vector stays 24 bytes (a std::vector's size) and no
// Collection grows. Longer vectors own one heap block of exactly dim()
// doubles. data() is a span over the components.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>

#include <ddc/common/assert.hpp>

namespace ddc::linalg {

/// Dense real vector with value semantics.
///
/// Regular type: default-constructible (empty), copyable, movable,
/// equality-comparable.  Arithmetic operations require equal dimensions and
/// enforce that with preconditions.
class Vector {
 public:
  /// Empty (dimension-0) vector.
  Vector() = default;

  /// Zero vector of dimension `dim`.
  explicit Vector(std::size_t dim) : Vector(dim, 0.0) {}

  /// Vector of dimension `dim` with every component equal to `fill`.
  Vector(std::size_t dim, double fill) : dim_(dim) {
    allocate();
    std::fill_n(ptr(), dim_, fill);
  }

  /// Vector from an explicit component list, e.g. `Vector{1.0, 2.0}`.
  Vector(std::initializer_list<double> init)
      : Vector(std::span<const double>(init.begin(), init.size())) {}

  /// Vector holding a copy of `elems`.
  explicit Vector(std::span<const double> elems) : dim_(elems.size()) {
    allocate();
    std::copy(elems.begin(), elems.end(), ptr());
  }

  Vector(const Vector& other) : Vector(other.data()) {}
  Vector(Vector&& other) noexcept : dim_(other.dim_) {
    if (on_heap()) {
      heap_ = other.heap_;
    } else {
      std::copy_n(other.inline_, kInline, inline_);
    }
    other.dim_ = 0;
  }
  Vector& operator=(const Vector& other) {
    if (this == &other) return *this;
    if (dim_ == other.dim_) {
      std::copy_n(other.ptr(), dim_, ptr());
      return *this;
    }
    return *this = Vector(other);
  }
  Vector& operator=(Vector&& other) noexcept {
    if (this != &other) {
      release();
      dim_ = other.dim_;
      if (on_heap()) {
        heap_ = other.heap_;
      } else {
        std::copy_n(other.inline_, kInline, inline_);
      }
      other.dim_ = 0;
    }
    return *this;
  }
  ~Vector() { release(); }

  /// Number of components.
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// True iff the vector has no components.
  [[nodiscard]] bool empty() const noexcept { return dim_ == 0; }

  /// Component access (checked).
  [[nodiscard]] double& operator[](std::size_t i) {
    DDC_EXPECTS(i < dim_);
    return ptr()[i];
  }
  [[nodiscard]] double operator[](std::size_t i) const {
    DDC_EXPECTS(i < dim_);
    return ptr()[i];
  }

  /// Raw storage access for interoperation with algorithms.
  [[nodiscard]] std::span<const double> data() const noexcept {
    return {ptr(), dim_};
  }
  [[nodiscard]] std::span<double> data() noexcept { return {ptr(), dim_}; }

  // Iteration (enables range-for and <algorithm> use).
  [[nodiscard]] double* begin() noexcept { return ptr(); }
  [[nodiscard]] double* end() noexcept { return ptr() + dim_; }
  [[nodiscard]] const double* begin() const noexcept { return ptr(); }
  [[nodiscard]] const double* end() const noexcept { return ptr() + dim_; }

  // In-place arithmetic.  All binary forms require matching dimensions.
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s) noexcept;
  Vector& operator/=(double s);

  friend bool operator==(const Vector& a, const Vector& b) noexcept {
    return std::ranges::equal(a.data(), b.data());
  }

 private:
  /// Components held inline, without a heap block.
  static constexpr std::size_t kInline = 2;

  [[nodiscard]] bool on_heap() const noexcept { return dim_ > kInline; }
  [[nodiscard]] double* ptr() noexcept { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const double* ptr() const noexcept {
    return on_heap() ? heap_ : inline_;
  }
  /// Gives a vector of dim_ > kInline its heap block.
  void allocate() {
    if (on_heap()) heap_ = new double[dim_];
  }
  void release() noexcept {
    if (on_heap()) delete[] heap_;
  }

  std::size_t dim_ = 0;
  union {
    double* heap_;
    double inline_[kInline] = {};
  };
};
static_assert(sizeof(Vector) == 24);

[[nodiscard]] Vector operator+(Vector lhs, const Vector& rhs);
[[nodiscard]] Vector operator-(Vector lhs, const Vector& rhs);
[[nodiscard]] Vector operator*(Vector v, double s);
[[nodiscard]] Vector operator*(double s, Vector v);
[[nodiscard]] Vector operator/(Vector v, double s);
[[nodiscard]] Vector operator-(Vector v);

/// Inner product. Requires `a.dim() == b.dim()`.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Euclidean (L2) norm.
[[nodiscard]] double norm2(const Vector& v) noexcept;

/// Manhattan (L1) norm — the collection weight of an auxiliary vector in
/// the paper's mixture space is `‖aux‖₁` (Lemma 1, Eq. 2).
[[nodiscard]] double norm1(const Vector& v) noexcept;

/// Maximum absolute component.
[[nodiscard]] double norm_inf(const Vector& v) noexcept;

/// Euclidean distance `‖a − b‖₂`. Requires matching dimensions.
[[nodiscard]] double distance2(const Vector& a, const Vector& b);

/// Angle in radians between two nonzero vectors — the paper's mixture-space
/// metric d_M (Section 4.2) and its reference angles ϕᵥᵢ (Section 6.1).
/// Result is in [0, π]. Throws NumericalError on a zero vector.
[[nodiscard]] double angle_between(const Vector& a, const Vector& b);

/// `v / ‖v‖₂`. Throws NumericalError on a zero vector.
[[nodiscard]] Vector normalized(const Vector& v);

/// i'th standard basis vector e_i of dimension `dim` (the initial auxiliary
/// vector of node i in Algorithm 1, line 2).
[[nodiscard]] Vector unit_vector(std::size_t dim, std::size_t i);

std::ostream& operator<<(std::ostream& os, const Vector& v);

}  // namespace ddc::linalg
