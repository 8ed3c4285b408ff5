#include <ddc/linalg/simd.hpp>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include "simd_kernels.hpp"

namespace ddc::linalg::simd {

namespace {

/// Scalar reference: dispatch the fixed-d kernel on the model dimension.
void score_batch_scalar(const kernels::ScorerData& s, const double* means,
                        const double* covs, std::size_t count, double* out,
                        double* scratch) {
  kernels::dispatch_dim(s.d, [&](auto d) {
    kernels::score_batch<d()>(s, means, covs, count, out, scratch, s.d);
  });
}

/// Scalar reference: dispatch the fixed-d distance kernel on `d`.
void distance_batch_scalar(const double* a, const double* bs,
                           std::size_t count, double* out, std::size_t d) {
  kernels::dispatch_dim(d, [&](auto dd) {
    kernels::distance2_batch<dd()>(a, bs, count, out, d);
  });
}

std::atomic<Tier> g_tier{Tier::scalar};
std::once_flag g_env_default_once;

bool avx2_available() noexcept {
  return compiled_with_avx2() && cpu_supports_avx2();
}

/// Applies a mode that is already known to be satisfiable.
void apply(Mode mode) noexcept {
  const bool avx2 = mode == Mode::auto_detect && avx2_available();
  g_tier.store(avx2 ? Tier::avx2 : Tier::scalar, std::memory_order_relaxed);
}

/// The DDC_SIMD environment variable is a soft default: read once,
/// unrecognized values mean auto.
void apply_env_default() noexcept {
  Mode mode = Mode::auto_detect;
  if (const char* env = std::getenv("DDC_SIMD")) {
    if (const auto parsed = parse_mode(env)) mode = *parsed;
  }
  apply(mode);
}

void ensure_default() noexcept {
  std::call_once(g_env_default_once, apply_env_default);
}

}  // namespace

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool compiled_with_avx2() noexcept {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
  return true;
#else
  return false;
#endif
}

void configure(Mode mode) {
  ensure_default();
  apply(mode);
}

Tier dispatch() noexcept {
  ensure_default();
  return g_tier.load(std::memory_order_relaxed);
}

std::optional<Mode> parse_mode(std::string_view text) noexcept {
  if (text == "auto") return Mode::auto_detect;
  if (text == "scalar") return Mode::scalar;
  return std::nullopt;
}

const char* tier_name(Tier tier) noexcept {
  return tier == Tier::avx2 ? "avx2" : "scalar";
}

ScoreBatchFn batch_score_kernel() noexcept {
  if (dispatch() == Tier::avx2) {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
    return &detail::score_batch_avx2_lanewise;
#endif
  }
  return &score_batch_scalar;
}

ScoreBatchFn scalar_score_kernel() noexcept { return &score_batch_scalar; }

ScoreBatchFn avx2_lanewise_score_kernel() noexcept {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
  return &detail::score_batch_avx2_lanewise;
#else
  return nullptr;
#endif
}

DistanceBatchFn batch_distance_kernel() noexcept {
  if (dispatch() == Tier::avx2) {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
    return &detail::distance_batch_avx2_lanewise;
#endif
  }
  return &distance_batch_scalar;
}

DistanceBatchFn scalar_distance_kernel() noexcept {
  return &distance_batch_scalar;
}

DistanceBatchFn avx2_lanewise_distance_kernel() noexcept {
#if defined(DDC_LINALG_HAVE_AVX2_TU)
  return &detail::distance_batch_avx2_lanewise;
#else
  return nullptr;
#endif
}

}  // namespace ddc::linalg::simd
