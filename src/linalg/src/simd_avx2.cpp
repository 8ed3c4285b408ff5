// AVX2 batch-scoring kernels. This translation unit is the only one
// compiled with -mavx2 (CMake adds the flag per-file when the toolchain
// supports it on x86-64); everything else in the library stays on the
// baseline ISA, and runtime dispatch (simd.cpp) never routes here
// unless the CPU reports AVX2.
//
// Two kernels live here:
//
//   score_batch_avx2_lanewise — BIT-EXACT. Scores 4 inputs per pass
//   with one input per SIMD lane. Every lane executes the exact scalar
//   operation sequence of kernels::score_one: same per-row trace
//   accumulator with the same zero-coefficient skip (the skip tests the
//   *model* inverse entry, so it is uniform across lanes), same forward
//   substitution, same add/mul/div/sub ordering. No horizontal
//   reductions, no re-association; vaddpd/vmulpd/vdivpd are IEEE-exact
//   per lane, and nothing here compiles with -mfma, so no contraction.
//   The kernel equivalence matrix asserts bit-identity to the scalar
//   reference on every input it can construct.
//
//   distance_batch_avx2_lanewise — BIT-EXACT. Euclidean distances from
//   one point to 4 packed points per pass, one point per lane, each
//   lane running kernels::distance2's exact subtract/multiply/
//   accumulate order; vsqrtpd is correctly rounded per lane like
//   std::sqrt. Backs the greedy centroid partition's distance-matrix
//   fill, so it feeds golden digests.
#if defined(DDC_LINALG_HAVE_AVX2_TU)

#include <immintrin.h>

#include <cstddef>

#include <ddc/linalg/kernels.hpp>

namespace ddc::linalg::simd::detail {

namespace {

/// Scores inputs [base, base+4) lanewise. `ylanes` must hold 4·d
/// doubles (lane-interleaved forward-substitution solutions).
template <std::size_t D>
void score4_lanewise(const kernels::ScorerData& s, const double* means,
                     const double* covs, std::size_t base, double* out,
                     double* ylanes) {
  const std::size_t n = kernels::dim_of<D>(s.d);
  const double* mean[4];
  const double* cov[4];
  for (std::size_t j = 0; j < 4; ++j) {
    mean[j] = means + (base + j) * n;
    cov[j] = covs + (base + j) * n * n;
  }

  // Trace term — kernels::trace_product per lane: per-row accumulator,
  // ascending k, zero model-inverse coefficients skipped (uniform
  // across lanes), row sums added in ascending row order.
  __m256d tr = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; ++i) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = s.inv[i * n + k];
      if (aik == 0.0) continue;
      const __m256d b = _mm256_set_pd(cov[3][k * n + i], cov[2][k * n + i],
                                      cov[1][k * n + i], cov[0][k * n + i]);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(aik), b));
    }
    tr = _mm256_add_pd(tr, acc);
  }

  // Mahalanobis term — diff = input mean − model mean, forward
  // substitution through L, then Σ yᵢ² in ascending i (the scalar
  // kernel finishes the solve before the dot product, but the dot
  // accumulates in the same ascending order, so fusing the loops
  // performs identical arithmetic).
  __m256d maha = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; ++i) {
    __m256d acc =
        _mm256_sub_pd(_mm256_set_pd(mean[3][i], mean[2][i], mean[1][i],
                                    mean[0][i]),
                      _mm256_set1_pd(s.mean[i]));
    for (std::size_t k = 0; k < i; ++k) {
      const __m256d yk = _mm256_loadu_pd(ylanes + 4 * k);
      acc = _mm256_sub_pd(acc,
                          _mm256_mul_pd(_mm256_set1_pd(s.l[i * n + k]), yk));
    }
    const __m256d yi = _mm256_div_pd(acc, _mm256_set1_pd(s.l[i * n + i]));
    _mm256_storeu_pd(ylanes + 4 * i, yi);
    maha = _mm256_add_pd(maha, _mm256_mul_pd(yi, yi));
  }

  // −½(base + tr + maha), left-associated exactly like the scalar path.
  const __m256d total = _mm256_mul_pd(
      _mm256_set1_pd(-0.5),
      _mm256_add_pd(_mm256_add_pd(_mm256_set1_pd(s.base), tr), maha));
  _mm256_storeu_pd(out + base, total);
}

template <std::size_t D>
void batch_lanewise(const kernels::ScorerData& s, const double* means,
                    const double* covs, std::size_t count, double* out,
                    double* scratch) {
  const std::size_t n = kernels::dim_of<D>(s.d);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    score4_lanewise<D>(s, means, covs, i, out, scratch);
  }
  // Remainder inputs take the scalar kernel — bit-identical anyway.
  for (; i < count; ++i) {
    out[i] = kernels::score_one<D>(s, means + i * n, covs + i * n * n,
                                   scratch, n);
  }
}

/// Distances from `a` to packed points [base, base+4) lanewise — the
/// exact scalar sequence of kernels::distance2 per lane: diff = a[i] −
/// b[i], acc += diff·diff in ascending i, then one correctly-rounded
/// square root (vsqrtpd is IEEE-exact per lane, like std::sqrt).
template <std::size_t D>
void distance4_lanewise(const double* a, const double* bs, std::size_t base,
                        double* out, std::size_t rd) {
  const std::size_t n = kernels::dim_of<D>(rd);
  const double* b0 = bs + base * n;
  const double* b1 = b0 + n;
  const double* b2 = b1 + n;
  const double* b3 = b2 + n;
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d diff = _mm256_sub_pd(
        _mm256_set1_pd(a[i]), _mm256_set_pd(b3[i], b2[i], b1[i], b0[i]));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  _mm256_storeu_pd(out + base, _mm256_sqrt_pd(acc));
}

template <std::size_t D>
void distance_batch_lanewise(const double* a, const double* bs,
                             std::size_t count, double* out, std::size_t rd) {
  const std::size_t n = kernels::dim_of<D>(rd);
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    distance4_lanewise<D>(a, bs, j, out, rd);
  }
  // Remainder points take the scalar kernel — bit-identical anyway.
  for (; j < count; ++j) {
    out[j] = kernels::distance2<D>(a, bs + j * n, n);
  }
}

}  // namespace

void score_batch_avx2_lanewise(const kernels::ScorerData& s,
                               const double* means, const double* covs,
                               std::size_t count, double* out,
                               double* scratch) {
  kernels::dispatch_dim(s.d, [&](auto d) {
    batch_lanewise<d()>(s, means, covs, count, out, scratch);
  });
}

void distance_batch_avx2_lanewise(const double* a, const double* bs,
                                  std::size_t count, double* out,
                                  std::size_t d) {
  kernels::dispatch_dim(d, [&](auto dd) {
    distance_batch_lanewise<dd()>(a, bs, count, out, d);
  });
}

}  // namespace ddc::linalg::simd::detail

#endif  // DDC_LINALG_HAVE_AVX2_TU
