// Fixed-dimension kernel layer for the dense small-d hot paths.
//
// The GM instantiation spends its arithmetic in d-dimensional primitives
// with d ∈ {1, 2, 3, 4} in every paper workload: Cholesky factorizations,
// triangular solves, trace products and moment accumulations, executed
// millions of times per simulated round. Compiled as generic runtime-d
// loops (through the checked Matrix/Vector accessors) none of that
// unrolls; this header provides the same algorithms templated on a
// compile-time dimension D operating on raw row-major storage, plus a
// runtime dispatcher that selects the D = 1..4 instantiation matching the
// observed input dimension (and the dynamic instantiation otherwise).
//
// BIT-EXACTNESS CONTRACT: every kernel here performs the exact
// floating-point operations, in the exact order, of the generic routine
// it replaces (Cholesky ctor / solve_lower / inverse, trace_product,
// dot, add_scaled, add_scaled_spread, ExpectedLogPdfScorer::score). A
// fixed-D instantiation only pins the trip counts — unrolling never
// reorders the arithmetic — so the d = 1..4 specializations are
// bit-identical to the dynamic one by construction, and the dynamic one
// is a line-for-line transcription of the original. The protocol's
// determinism goldens hash every mantissa bit of downstream
// classifications; tests/linalg/kernel_equivalence_test.cpp asserts the
// equivalence exhaustively (random + adversarial near-singular inputs).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <utility>

namespace ddc::linalg::kernels {

/// Sentinel compile-time dimension meaning "use the runtime dimension".
inline constexpr std::size_t kDynamic = 0;

/// The effective trip count: the compile-time D when fixed, else `rd`.
template <std::size_t D>
[[nodiscard]] constexpr std::size_t dim_of(std::size_t rd) noexcept {
  return D == kDynamic ? rd : D;
}

/// Invokes `f` with an integral_constant for the specialized dimension
/// matching `d` (1..4), or kDynamic for anything larger. The callable is
/// instantiated once per dimension, so the fixed-d bodies fully unroll.
template <typename F>
decltype(auto) dispatch_dim(std::size_t d, F&& f) {
  switch (d) {
    case 1:
      return std::forward<F>(f)(std::integral_constant<std::size_t, 1>{});
    case 2:
      return std::forward<F>(f)(std::integral_constant<std::size_t, 2>{});
    case 3:
      return std::forward<F>(f)(std::integral_constant<std::size_t, 3>{});
    case 4:
      return std::forward<F>(f)(std::integral_constant<std::size_t, 4>{});
    default:
      return std::forward<F>(f)(
          std::integral_constant<std::size_t, kDynamic>{});
  }
}

/// Lower Cholesky factor of the row-major d×d matrix `a` into `l`
/// (pre-zeroed; only the lower triangle is written, only the lower
/// triangle of `a` is read). Returns false when `a` is not numerically
/// positive definite — exactly the `!(diag > 0) || !isfinite(diag)`
/// rejection of the Cholesky constructor.
template <std::size_t D>
[[nodiscard]] bool cholesky_factor(const double* a, double* l,
                                   std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= l[j * n + k] * l[j * n + k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) acc -= l[i * n + k] * l[j * n + k];
      l[i * n + j] = acc / ljj;
    }
  }
  return true;
}

/// The regularized factorization: the Cholesky factor of `a` into `l`,
/// or else of a + εI for ε = 1e-9, 1e-8, … ≤ 1e3, the first that
/// succeeds. `jittered` is d×d scratch; `l` is zeroed first, so its upper
/// triangle ends zero. Returns false when every try fails. The one
/// jitter sequence of linalg::regularized_cholesky and the packed EM.
template <std::size_t D>
[[nodiscard]] bool regularized_cholesky_factor(const double* a, double* l,
                                               double* jittered,
                                               std::size_t rd) noexcept {
  constexpr double kMinJitter = 1e-9;
  constexpr double kMaxJitter = 1e3;
  const std::size_t n = dim_of<D>(rd);
  std::fill_n(l, n * n, 0.0);
  if (cholesky_factor<D>(a, l, rd)) return true;
  for (double eps = kMinJitter; eps <= kMaxJitter; eps *= 10.0) {
    std::copy_n(a, n * n, jittered);
    for (std::size_t i = 0; i < n; ++i) jittered[i * n + i] += eps;
    if (cholesky_factor<D>(jittered, l, rd)) return true;
  }
  return false;
}

/// Forward substitution `L y = b` with `l` the row-major factor.
template <std::size_t D>
void solve_lower(const double* l, const double* b, double* y,
                 std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l[i * n + k] * y[k];
    y[i] = acc / l[i * n + i];
  }
}

/// Back substitution `Lᵀ x = y` (the second half of an SPD solve).
template <std::size_t D>
void solve_upper_transposed(const double* l, const double* y, double* x,
                            std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l[k * n + ii] * x[k];
    x[ii] = acc / l[ii * n + ii];
  }
}

/// `log det A = 2 Σ log L(i,i)` accumulated in ascending index order.
template <std::size_t D>
[[nodiscard]] double log_det_from_factor(const double* l,
                                         std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += std::log(l[i * n + i]);
  return 2.0 * acc;
}

/// `A⁻¹` from the factor `l`, column by column — the exact arithmetic of
/// Cholesky::inverse() (solve of the identity, forward then backward
/// substitution per column). `scratch` must hold 2·d doubles.
template <std::size_t D>
void inverse_from_factor(const double* l, double* inv, double* scratch,
                         std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  double* y = scratch;
  double* x = scratch + n;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = i == c ? 1.0 : 0.0;
      for (std::size_t k = 0; k < i; ++k) acc -= l[i * n + k] * y[k];
      y[i] = acc / l[i * n + i];
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) acc -= l[k * n + ii] * x[k];
      x[ii] = acc / l[ii * n + ii];
    }
    for (std::size_t r = 0; r < n; ++r) inv[r * n + c] = x[r];
  }
}

/// Inner product in ascending index order.
template <std::size_t D>
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// Squared Mahalanobis form `xᵀ A⁻¹ x` via one forward substitution —
/// Cholesky::mahalanobis_squared. `y` must hold d doubles.
template <std::size_t D>
[[nodiscard]] double mahalanobis_squared(const double* l, const double* x,
                                         double* y, std::size_t rd) noexcept {
  solve_lower<D>(l, x, y, rd);
  return dot<D>(y, y, rd);
}

/// `Σ (a[i]−b[i])²` then sqrt — linalg::distance2's accumulation order.
template <std::size_t D>
[[nodiscard]] double distance2(const double* a, const double* b,
                               std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

/// Distances from one point `a` to `count` consecutively packed points
/// (`bs` row-major count×d). Scalar reference tier: out[j] is
/// bit-identical to distance2 on (a, bs + j·d).
template <std::size_t D>
void distance2_batch(const double* a, const double* bs, std::size_t count,
                     double* out, std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = distance2<D>(a, bs + j * n, n);
  }
}

/// `trace(a·b)` for square row-major d×d matrices — linalg::trace_product:
/// per-row accumulator, ascending k, zero a(i,k) coefficients skipped
/// (mirroring operator*'s sparse-coefficient skip), row sums added in
/// ascending row order.
template <std::size_t D>
[[nodiscard]] double trace_product(const double* a, const double* b,
                                   std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      if (aik == 0.0) continue;
      acc += aik * b[k * n + i];
    }
    total += acc;
  }
  return total;
}

/// `acc += scale * v`, elementwise.
template <std::size_t D>
void add_scaled(double* acc, double scale, const double* v,
                std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t i = 0; i < n; ++i) acc[i] += scale * v[i];
}

/// `acc += scale * (m + delta deltaᵀ)`, elementwise over the d×d matrices.
template <std::size_t D>
void add_scaled_spread(double* acc, double scale, const double* m,
                       const double* delta, std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      acc[r * n + c] += scale * (m[r * n + c] + delta[r] * delta[c]);
    }
  }
}

/// `acc += scale * (delta deltaᵀ)` — the point-part spread (note the
/// parenthesization matches the original: scale * (δr·δc), no m term).
template <std::size_t D>
void add_scaled_outer(double* acc, double scale, const double* delta,
                      std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      acc[r * n + c] += scale * (delta[r] * delta[c]);
    }
  }
}

/// The model-side invariants of an expected-log-pdf scorer, viewed as raw
/// row-major storage: mean (d), Cholesky factor L of the regularized
/// covariance (d×d), its inverse (d×d), and the input-independent base
/// term d·log 2π + log|Σ|.
struct ScorerData {
  std::size_t d = 0;
  const double* mean = nullptr;
  const double* l = nullptr;
  const double* inv = nullptr;
  double base = 0.0;
};

/// Scores one input ⟨mean, cov⟩ against the hoisted model — the exact
/// arithmetic of ExpectedLogPdfScorer::score: trace term (zero-skip
/// trace product of Σb⁻¹ with the input covariance), Mahalanobis term of
/// the mean difference through L, then −½(base + tr + maha). `scratch`
/// must hold 2·d doubles.
template <std::size_t D>
[[nodiscard]] double score_one(const ScorerData& s, const double* mean,
                               const double* cov, double* scratch,
                               std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  const double tr = trace_product<D>(s.inv, cov, n);
  double* diff = scratch;
  double* y = scratch + n;
  for (std::size_t i = 0; i < n; ++i) diff[i] = mean[i] - s.mean[i];
  const double maha = mahalanobis_squared<D>(s.l, diff, y, n);
  return -0.5 * (s.base + tr + maha);
}

/// Scores `count` structure-of-arrays inputs (means packed input-major
/// count×d, covariances count×d²) against one hoisted model. Scalar
/// reference tier: out[i] is bit-identical to score_one on input i.
/// `scratch` must hold at least 2·d doubles.
template <std::size_t D>
void score_batch(const ScorerData& s, const double* means, const double* covs,
                 std::size_t count, double* out, double* scratch,
                 std::size_t rd) noexcept {
  const std::size_t n = dim_of<D>(rd);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] =
        score_one<D>(s, means + i * n, covs + i * n * n, scratch, n);
  }
}

}  // namespace ddc::linalg::kernels
