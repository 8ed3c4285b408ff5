// Runtime CPU-dispatch seam for the batched math kernels.
//
// The kernel layer (linalg/kernels.hpp) is scalar and bit-exact by
// construction. This seam selects, once per process, which *batched*
// implementation backs ExpectedLogPdfScorer::score_batch:
//
//   Tier::scalar — the kernels.hpp reference loop. Always available.
//   Tier::avx2   — 4-inputs-at-a-time lanewise AVX2. Each SIMD lane
//                  executes the exact scalar operation sequence (no
//                  horizontal reductions, no re-association, and no FMA
//                  contraction — nothing here compiles with -mfma), so
//                  this tier is bit-identical to Tier::scalar and safe
//                  for the determinism goldens.
//
// On top of the selected tier sits an optional FAST-MATH tier (off by
// default, only enabled by an explicit Mode::avx2 request): per-input
// kernels that re-associate the d² trace-term accumulation into 4-lane
// partial sums. Fast-math results differ from scalar in the last few
// ulps; they are covered by error-bound tests (tests/stats) and must
// never feed a golden/digest test. ddcverify's float-reorder rule flags
// the fast-math entry points so every use is audited.
//
// Mode selection:
//   Mode::auto_detect (default) — lanewise AVX2 iff the binary carries
//     the AVX2 translation unit AND the CPU reports AVX2; scalar
//     otherwise. Fast-math stays off. Bit-exact everywhere.
//   Mode::scalar — force the reference tier (CI fallback leg).
//   Mode::avx2   — require AVX2 (ConfigError if unavailable) and enable
//     the fast-math tier. Opt-in only, never the default.
//
// The DDC_SIMD environment variable ("auto" | "scalar" | "avx2")
// provides a soft process-wide default: it is read once, unrecognized
// values fall back to auto, and an "avx2" request on an unsupported
// host degrades to auto instead of erroring (only configure(), i.e. the
// --simd flag, is strict). Tools wire the --simd flag through
// cli::engine_flags and call configure() right after parsing.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include <ddc/linalg/kernels.hpp>

namespace ddc::linalg::simd {

/// Requested dispatch policy (the --simd flag / DDC_SIMD env values).
enum class Mode { auto_detect, scalar, avx2 };

/// Resolved implementation tier actually executing.
enum class Tier { scalar, avx2 };

/// True iff the running CPU reports AVX2 support.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// True iff this binary was built with the AVX2 translation unit
/// (the toolchain accepted -mavx2 on an x86-64 target).
[[nodiscard]] bool compiled_with_avx2() noexcept;

/// Applies `mode` process-wide. Strict: Mode::avx2 throws ConfigError
/// when the CPU or the build lacks AVX2. Thread-safe; later calls
/// override earlier ones (and the DDC_SIMD default).
void configure(Mode mode);

/// The tier the process is currently dispatching to.
[[nodiscard]] Tier dispatch() noexcept;

/// True iff the fast-math tier is active (explicit Mode::avx2 only).
[[nodiscard]] bool fast_math_enabled() noexcept;

/// Parses "auto" / "scalar" / "avx2"; nullopt on anything else.
[[nodiscard]] std::optional<Mode> parse_mode(std::string_view text) noexcept;

[[nodiscard]] const char* mode_name(Mode mode) noexcept;
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Batched scorer kernel: scores `count` SoA inputs (means count×d,
/// covariances count×d², row-major) against the hoisted model `s`,
/// writing `out[0..count)`. `scratch` must hold at least 8·d doubles.
using ScoreBatchFn = void (*)(const kernels::ScorerData& s,
                              const double* means, const double* covs,
                              std::size_t count, double* out,
                              double* scratch);

/// The kernel matching the current dispatch() tier (+ fast-math state).
/// Never null.
[[nodiscard]] ScoreBatchFn batch_score_kernel() noexcept;

/// The scalar reference kernel (always available; the equivalence
/// tests compare every other kernel against this one).
[[nodiscard]] ScoreBatchFn scalar_score_kernel() noexcept;

/// The bit-exact lanewise AVX2 kernel, or nullptr when the binary has
/// no AVX2 translation unit.
[[nodiscard]] ScoreBatchFn avx2_lanewise_score_kernel() noexcept;

/// The fast-math (re-associated) AVX2 kernel, or nullptr when the
/// binary has no AVX2 translation unit. Covered by error-bound tests,
/// never by golden digests.
[[nodiscard]] ScoreBatchFn fast_math_score_kernel() noexcept;

/// Batched centroid-distance kernel: Euclidean distances from one point
/// `a` to `count` consecutively packed points (`bs` row-major count×d),
/// writing `out[0..count)`. Every tier is bit-identical to
/// kernels::distance2 per output — there is no fast-math variant, the
/// centroid protocol's golden digests ride directly on these values.
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
