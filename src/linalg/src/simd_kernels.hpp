// Internal declarations of the AVX2 kernel translation unit
// (simd_avx2.cpp, compiled with -mavx2 when the toolchain supports it).
// Not installed; only simd.cpp includes this.
#pragma once

#include <cstddef>

#include <ddc/linalg/kernels.hpp>

#if defined(DDC_LINALG_HAVE_AVX2_TU)

namespace ddc::linalg::simd::detail {

/// Lanewise 4-wide batch scorer: bit-identical to the scalar kernel
/// (each lane runs the exact scalar operation sequence).
void score_batch_avx2_lanewise(const kernels::ScorerData& s,
                               const double* means, const double* covs,
                               std::size_t count, double* out,
                               double* scratch);

/// Lanewise 4-wide batched centroid distance: bit-identical to
/// kernels::distance2_batch (each lane runs the exact scalar subtract/
/// multiply/accumulate sequence; vsqrtpd is correctly rounded like
/// std::sqrt).
void distance_batch_avx2_lanewise(const double* a, const double* bs,
                                  std::size_t count, double* out,
                                  std::size_t d);

}  // namespace ddc::linalg::simd::detail

#endif  // DDC_LINALG_HAVE_AVX2_TU
