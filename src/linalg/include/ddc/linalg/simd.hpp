// Runtime CPU-dispatch seam for the batched math kernels.
//
// The kernel layer (linalg/kernels.hpp) is scalar and bit-exact by
// construction. This seam selects, once per process, which *batched*
// implementation scores the EM's E step (em::reduce_em_rows):
//
//   Tier::scalar — the kernels.hpp reference loop. Always available.
//   Tier::avx2   — 4-inputs-at-a-time lanewise AVX2. Each SIMD lane
//                  executes the exact scalar operation sequence (no
//                  horizontal reductions, no re-association, and no FMA
//                  contraction — nothing here compiles with -mfma), so
//                  this tier is bit-identical to Tier::scalar and safe
//                  for the determinism goldens.
//
// Every tier is bit-exact; there is no re-associating variant.
//
// Mode selection:
//   Mode::auto_detect (default) — lanewise AVX2 iff the binary carries
//     the AVX2 translation unit AND the CPU reports AVX2; scalar
//     otherwise.
//   Mode::scalar — force the reference tier (CI fallback leg).
//
// The DDC_SIMD environment variable ("auto" | "scalar") is the one
// switch: it is read once and unrecognized values fall back to auto.
// The tools take no flag for it; tests call configure() to compare the
// tiers within one process.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include <ddc/linalg/kernels.hpp>

namespace ddc::linalg::simd {

/// Requested dispatch policy (the DDC_SIMD values).
enum class Mode { auto_detect, scalar };

/// Resolved implementation tier actually executing.
enum class Tier { scalar, avx2 };

/// True iff the running CPU reports AVX2 support.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// True iff this binary was built with the AVX2 translation unit
/// (the toolchain accepted -mavx2 on an x86-64 target).
[[nodiscard]] bool compiled_with_avx2() noexcept;

/// Applies `mode` process-wide. Thread-safe; later calls override
/// earlier ones (and the DDC_SIMD default).
void configure(Mode mode);

/// The tier the process is currently dispatching to.
[[nodiscard]] Tier dispatch() noexcept;

/// Parses "auto" / "scalar"; nullopt on anything else.
[[nodiscard]] std::optional<Mode> parse_mode(std::string_view text) noexcept;

[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Batched scorer kernel: scores `count` SoA inputs (means count×d,
/// covariances count×d², row-major) against the hoisted model `s`,
/// writing `out[0..count)`. `scratch` must hold at least 8·d doubles.
using ScoreBatchFn = void (*)(const kernels::ScorerData& s,
                              const double* means, const double* covs,
                              std::size_t count, double* out,
                              double* scratch);

/// The kernel matching the current dispatch() tier. Never null.
[[nodiscard]] ScoreBatchFn batch_score_kernel() noexcept;

/// The scalar reference kernel (always available; the equivalence
/// tests compare every other kernel against this one).
[[nodiscard]] ScoreBatchFn scalar_score_kernel() noexcept;

/// The bit-exact lanewise AVX2 kernel, or nullptr when the binary has
/// no AVX2 translation unit.
[[nodiscard]] ScoreBatchFn avx2_lanewise_score_kernel() noexcept;

/// Batched centroid-distance kernel: Euclidean distances from one point
/// `a` to `count` consecutively packed points (`bs` row-major count×d),
/// writing `out[0..count)`. Every tier is bit-identical to
/// kernels::distance2 per output — the centroid protocol's golden
/// digests ride directly on these values.
using DistanceBatchFn = void (*)(const double* a, const double* bs,
                                 std::size_t count, double* out,
                                 std::size_t d);

/// The distance kernel matching the current dispatch() tier. Never null.
[[nodiscard]] DistanceBatchFn batch_distance_kernel() noexcept;

/// The scalar reference distance kernel (always available).
[[nodiscard]] DistanceBatchFn scalar_distance_kernel() noexcept;

/// The bit-exact lanewise AVX2 distance kernel, or nullptr when the
/// binary has no AVX2 translation unit.
[[nodiscard]] DistanceBatchFn avx2_lanewise_distance_kernel() noexcept;

}  // namespace ddc::linalg::simd
