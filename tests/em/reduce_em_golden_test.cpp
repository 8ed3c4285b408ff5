// Golden pin of the EM mixture reduction (Section 5.2), bit for bit.
//
// The table below was recorded from the GaussianMixture-level EM that
// reduce_em_rows replaced (heap Gaussians, a part list per M step,
// try/catch jitter), on a fixed case list: d = 1..3, k = 1..3,
// l = k+1..2k+2, restarts 1, 2 and 4, and input shapes aimed at the
// delicate paths — point masses, one shared point mass (scoring floor
// 1e-12), a shared indefinite covariance (the jitter loop), rank-one
// covariances, exact mean ties. Each row holds the grouping, the
// iteration count, the objective as a hex float and a hash of every bit
// of the merged mixture. Both entry points must reproduce it:
// reduce_em_rows on packed rows (one workspace for every case, so stale
// buffer contents would show) and the reduce_em adapter.
//
// Inputs come from SplitMix64, not std distributions; restarts > 1 draw
// from stats::Rng (std::mt19937_64 through std::uniform_real_distribution),
// so those rows assume the standard library the table was recorded with.
#include <ddc/em/mixture_reduction.hpp>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>
#include <ddc/core/policy.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::em {
namespace {

/// Input shapes: each aims EM at one numerically delicate path.
enum class Shape {
  random,         // grid or continuous means; zero or SPD covariances
  point_masses,   // every covariance all-zero, grid means
  identical,      // one shared point mass: the scoring floor is 1e-12
  indefinite,     // one shared indefinite covariance: the jitter loop runs
  near_singular,  // rank-one covariances plus 1e-13·I
  ties,           // means in exact pairs, equal weights: maximin ties
};
constexpr std::size_t kShapes = 6;

/// Portable input stream (SplitMix64), independent of std distributions.
struct Bits {
  std::uint64_t state;
  std::uint64_t next() { return stats::splitmix64(state); }
  std::size_t below(std::size_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  double grid() { return static_cast<double>(below(5)) - 2.0; }
};

stats::GaussianMixture golden_input(std::size_t d, std::size_t l, Shape shape,
                                    std::uint64_t seed) {
  Bits bits{seed};
  linalg::Vector shared(d);
  for (std::size_t c = 0; c < d; ++c) shared[c] = bits.grid();
  stats::GaussianMixture out;
  for (std::size_t i = 0; i < l; ++i) {
    double weight = bits.below(4) == 0
                        ? static_cast<double>(1 + bits.below(64)) / 8.0
                        : static_cast<double>(1 + bits.below(16));
    linalg::Vector mean(d);
    linalg::Matrix cov(d, d);
    switch (shape) {
      case Shape::random:
        for (std::size_t c = 0; c < d; ++c) {
          mean[c] = bits.below(4) != 0 ? bits.grid() : 8.0 * bits.unit() - 4.0;
        }
        if (bits.below(2) == 0) {
          std::vector<double> a(d * d);
          for (double& x : a) x = 2.0 * bits.unit() - 1.0;
          for (std::size_t r = 0; r < d; ++r) {
            for (std::size_t c = 0; c < d; ++c) {
              double acc = r == c ? 0.1 : 0.0;
              for (std::size_t t = 0; t < d; ++t) {
                acc += a[r * d + t] * a[c * d + t];
              }
              cov(r, c) = acc;
            }
          }
        }
        break;
      case Shape::point_masses:
        for (std::size_t c = 0; c < d; ++c) mean[c] = bits.grid();
        break;
      case Shape::identical:
        mean = shared;
        break;
      case Shape::indefinite:
        mean = shared;
        for (std::size_t r = 0; r < d; ++r) {
          for (std::size_t c = 0; c < d; ++c) cov(r, c) = r == c ? 1.0 : 2.0;
        }
        if (d == 1) cov(0, 0) = -1.0;
        break;
      case Shape::near_singular: {
        std::vector<double> v(d);
        for (std::size_t c = 0; c < d; ++c) {
          mean[c] = bits.grid();
          v[c] = 2.0 * bits.unit() - 1.0;
        }
        for (std::size_t r = 0; r < d; ++r) {
          for (std::size_t c = 0; c < d; ++c) {
            cov(r, c) = v[r] * v[c] + (r == c ? 1e-13 : 0.0);
          }
        }
        break;
      }
      case Shape::ties:
        for (std::size_t c = 0; c < d; ++c) {
          mean[c] = static_cast<double>((i / 2 + c) % 3);
        }
        weight = 2.0;
        break;
    }
    out.add({weight, stats::Gaussian(std::move(mean), std::move(cov))});
  }
  return out;
}

/// One golden case: dimension, bound, input size, restarts and shape.
struct CaseSpec {
  std::size_t d, k, l, restarts;
  Shape shape;
  std::uint64_t input_seed, em_seed;
};

/// The fixed case list: d = 1..3, k = 1..3, l = k+1..2k+2, restarts 1, 2
/// and 4; the shape rotates per (d, k, l), so every shape meets every
/// restart count.
std::vector<CaseSpec> golden_cases() {
  std::vector<CaseSpec> out;
  std::size_t index = 0;
  for (std::size_t d = 1; d <= 3; ++d) {
    for (std::size_t k = 1; k <= 3; ++k) {
      for (std::size_t l = k + 1; l <= 2 * k + 2; ++l) {
        for (const std::size_t restarts : {1, 2, 4}) {
          const auto shape = static_cast<Shape>((index / 3) % kShapes);
          out.push_back({d, k, l, restarts, shape, 7919 * index + 1,
                         1000 + index});
          ++index;
        }
      }
    }
  }
  return out;
}

/// FNV-1a over the bits of every weight, mean and covariance entry.
std::uint64_t mixture_hash(const stats::GaussianMixture& mixture) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double x) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= 0x100000001b3ULL;
  };
  for (const auto& c : mixture.components()) {
    mix(c.weight);
    for (const double x : c.gaussian.mean().data()) mix(x);
    for (const double x : c.gaussian.cov().data()) mix(x);
  }
  return h;
}

/// "0,2|1|3": the groups in order, members in order.
std::string groups_text(const core::Grouping& groups, std::size_t count) {
  std::string out;
  for (std::size_t g = 0; g < count; ++g) {
    if (g > 0) out += '|';
    for (std::size_t t = 0; t < groups[g].size(); ++t) {
      if (t > 0) out += ',';
      out += std::to_string(groups[g][t]);
    }
  }
  return out;
}

struct Golden {
  const char* groups;
  std::size_t iterations;
  double objective;
  std::uint64_t mixture_hash;
};

// clang-format off
const Golden kGolden[] = {
    {"0,1", 3, -0x1.3c6345c14ff6p+0, 0xa7f26ee0731c345aULL},
    {"0,1", 3, -0x1.7f0bc7d259edp+0, 0x9f52551a0b7e4e6aULL},
    {"0,1", 3, -0x1.d24a6284a329ap+0, 0xc902d5d17fb2fedfULL},
    {"0,1,2", 3, -0x1.1a700725e38cap+0, 0xb048a96dd32f50c8ULL},
    {"0,1,2", 3, -0x1.b4b3cd48a13edp+0, 0x59b42959e2c97ab6ULL},
    {"0,1,2", 3, -0x1.59ac1d8439de4p+0, 0x0d5f9c67dc6dab1fULL},
    {"0,1,2,3", 2, 0x1.9cb0b7d09b3b5p+3, 0xf4f7b7186c12112dULL},
    {"0,1,2,3", 2, 0x1.9cb0b7d09b3b5p+3, 0x449192186c0f2fb7ULL},
    {"0,1,2,3", 2, 0x1.9cb0b7d09b3b5p+3, 0xb69712186c0f2fb7ULL},
    {"0,1,2", 2, 0x1.d1abed3df6979p+38, 0xe368d2186c0f2fb7ULL},
    {"0,1,2", 2, 0x1.d1abed3df6979p+38, 0x8a1c52186c0f2fb7ULL},
    {"0,1,2", 2, 0x1.d1abed3df697ap+38, 0xc7b852186c0f2fb7ULL},
    {"3|0,1,2", 19, -0x1.4fc647030e875p+0, 0x5660d41b64aff7c9ULL},
    {"0,1,3|2", 3, -0x1.4b147d4d6fbdcp+0, 0xb4e6565687b28206ULL},
    {"0,2,3|1", 20, -0x1.5b63f82d0fd6ep+0, 0x5aef45b8b02815d5ULL},
    {"0,1|2,3,4", 24, -0x1.9ba2bba8c2736p-2, 0xfcb4f41b77ca1e34ULL},
    {"0,1|2,3,4", 3, -0x1.9b9e47d8b996dp-2, 0xfcb4f41b77ca1e34ULL},
    {"0,1|2,3,4", 24, -0x1.9ba2bba8c2736p-2, 0xfcb4f41b77ca1e34ULL},
    {"1|0,2,3,4,5", 28, -0x1.0d306d8a9b913p+1, 0x0a48b67820bb6bb4ULL},
    {"1,2,3,4,5|0", 5, -0x1.aaf744f7c5021p+0, 0x308c31c8bc0d2568ULL},
    {"0,1,2,4,5|3", 5, -0x1.a455b7d959de5p+0, 0x2021359c5b9c0c51ULL},
    {"3|0,1|2", 3, 0x1.f3c9d60e5a644p-5, 0xf088823a249029bfULL},
    {"1|2|0,3", 3, -0x1.5355509e41041p-1, 0xe7534db9429a75b1ULL},
    {"1,3|2|0", 3, -0x1.1ee3299bcc915p-2, 0x56bad6c305231073ULL},
    {"0,1,2,3,4", 2, 0x1.9cb0b7d09b3b6p+3, 0xf64012186c0f2fb7ULL},
    {"0,1,2,3,4", 2, 0x1.9cb0b7d09b3b6p+3, 0x303692186c0f2fb7ULL},
    {"0,1,2,3,4", 2, 0x1.9cb0b7d09b3b5p+3, 0x0beb12186c0f2fb7ULL},
    {"0,1,2,3,4,5", 2, 0x1.d1abed3df697ap+38, 0x010732186c0f2fb7ULL},
    {"0,1,2,3,4,5", 2, 0x1.d1abed3df4357p+38, 0x9d49f2186c0f2fb7ULL},
    {"0,1,2,3,4,5", 2, 0x1.d1abed3df6979p+38, 0xf6b572186c0f2fb7ULL},
    {"0,1,2,3,4,5,6", 42, -0x1.bb0b6d5412c76p+0, 0x3e5c8143059493a3ULL},
    {"1,4|0,2,3,5,6", 31, -0x1.bb55c4056e661p+0, 0xeabe7e581e599695ULL},
    {"0,5|4,6|1,2,3", 3, -0x1.28ab4fb909138p+0, 0x24ff2a90721202b3ULL},
    {"0,1,6,7|4,5|2,3", 3, 0x1.1002f36ef4401p-1, 0x75f4823a249029bfULL},
    {"0,1,6,7|4,5|2,3", 3, 0x1.1002f36ef4401p-1, 0x75f4823a249029bfULL},
    {"0,1,6,7|4,5|2,3", 3, 0x1.1002f36ef4401p-1, 0x75f4823a249029bfULL},
    {"0,1", 3, -0x1.0738886c2d47p+1, 0x1dc7e029ec020cacULL},
    {"0,1", 3, -0x1.5ed0ef401ed15p+1, 0xa31a44d48e253b5dULL},
    {"0,1", 3, -0x1.6647750a8f3c4p+1, 0xecec29f46bfbf63aULL},
    {"0,1,2", 3, -0x1.4b4a59dd619d2p+1, 0x854a57cf5fbf6fb5ULL},
    {"0,1,2", 3, -0x1.93af2f7c90c73p-1, 0x4ab919e8ecd86d0bULL},
    {"0,1,2", 3, -0x1.5f6ae155e3856p+1, 0x514676d414b21995ULL},
    {"0,1,2,3", 2, 0x1.9cb0b7d09b3b4p+4, 0xf95d7a14b6876aa7ULL},
    {"0,1,2,3", 2, 0x1.9cb0b7d09b3b5p+4, 0x0a209a14b6876aa7ULL},
    {"0,1,2,3", 2, 0x1.9cb0b7d09b3b5p+4, 0xc352b125787a65d9ULL},
    {"0,1,2", 2, 0x1.8b2b83d84e314p+5, 0x0614ba14b6876aa7ULL},
    {"0,1,2", 2, 0x1.8b2b83d84e313p+5, 0x4ff95a14b6876aa7ULL},
    {"0,1,2", 2, 0x1.8b2b83d84e314p+5, 0x30959a14b6876aa7ULL},
    {"0,1,3|2", 5, -0x1.2cb19ff2d23ffp+1, 0xd9b5a3f1ae85ef62ULL},
    {"0,1,2|3", 4, -0x1.2fb6985751d4p+1, 0xb17208725cd1274aULL},
    {"0,1,3|2", 4, -0x1.ac8a9ef490066p+0, 0x76f8d88d71afdaa1ULL},
    {"0,1,2,3|4", 3, 0x1.4cc5f7b54fbb8p-1, 0x3eab52d4f9fa3addULL},
    {"0,1,2,3|4", 3, 0x1.4cc5f7b54fbb8p-1, 0x3eab52d4f9fa3addULL},
    {"0,1,2,3|4", 3, 0x1.4cc5f7b54fbb8p-1, 0x3eab52d4f9fa3addULL},
    {"5|0,1,2,3,4", 3, -0x1.4c4033b757eb5p+1, 0xaab2680ad330f8a8ULL},
    {"0,2,4,5|1,3", 3, -0x1.60aeb10a8dd26p+1, 0x893362a6510776b2ULL},
    {"0,1,2,4,5|3", 3, -0x1.5a9d5e3da47acp+1, 0x15f319e767ad02d3ULL},
    {"2|1,3|0", 3, 0x1.ec8b1592baa75p-1, 0xc6dab1418e80a50fULL},
    {"2,3|1|0", 3, 0x1.71e0b7bc59804p-2, 0x2afb03bdb8b77fdeULL},
    {"3|2|0,1", 3, 0x1.e7de62755e65ep+0, 0x81b6b1418e80a50fULL},
    {"0,1,2,3,4", 2, 0x1.9cb0b7d09b3b5p+4, 0xc2faea14b6876aa7ULL},
    {"0,1,2,3,4", 2, 0x1.9cb0b7d09b3b6p+4, 0x38e55a14b6876aa7ULL},
    {"0,1,2,3,4", 2, 0x1.9cb0b7d09b3b6p+4, 0xe574fa14b6876aa7ULL},
    {"0,1,2,3,4,5", 2, 0x1.8b2b83d84e315p+5, 0x74b48a14b6876aa7ULL},
    {"0,1,2,3,4,5", 2, 0x1.8b2b83d84e24dp+5, 0x7387e5eb49789559ULL},
    {"0,1,2,3,4,5", 2, 0x1.8b2b83d84e314p+5, 0x3b748a14b6876aa7ULL},
    {"1,2,3,5,6|4|0", 3, -0x1.6202348e492d7p+1, 0xb05d817eec43d478ULL},
    {"1,2|4,6|0,3,5", 10, -0x1.879663696a357p+1, 0xf5e5e94832876d25ULL},
    {"1,2,3,5|0|4,6", 5, -0x1.19cc8a7602012p+1, 0xb8b8e98d099414acULL},
    {"0,1,6,7|4,5|2,3", 3, 0x1.1fdaf2c4e8a56p+1, 0x7872b1418e80a50fULL},
    {"0,1,6,7|4,5|2,3", 3, 0x1.1fdaf2c4e8a56p+1, 0x7872b1418e80a50fULL},
    {"0,1,6,7|4,5|2,3", 3, 0x1.1fdaf2c4e8a56p+1, 0x7872b1418e80a50fULL},
    {"0,1", 3, 0x1.0a625fd46fe92p+1, 0xd5c9cff17750d12bULL},
    {"0,1", 3, -0x1.6db031506e6acp+0, 0xfe7af18d01366497ULL},
    {"0,1", 3, -0x1.705a19f97a946p+1, 0x1fccfa92b83aed87ULL},
    {"0,1,2", 3, -0x1.aa816366dc81ap-3, 0x05bdcfe9a90f0c8dULL},
    {"0,1,2", 3, -0x1.fcc7123465292p+0, 0x67b10b94c27a57baULL},
    {"0,1,2", 3, -0x1.13b61d3a8e168p+1, 0xedb4418906d69a63ULL},
    {"0,1,2,3", 2, 0x1.358489dc746c8p+5, 0x039d179f62dae92fULL},
    {"0,1,2,3", 2, 0x1.358489dc746c8p+5, 0x7f21979f62dae92fULL},
    {"0,1,2,3", 2, 0x1.358489dc746c8p+5, 0x3780d79f62dae92fULL},
    {"0,1,2", 2, 0x1.9224865ef4ef4p+6, 0x42d7179f62dae92fULL},
    {"0,1,2", 2, 0x1.9224865ef4ef3p+6, 0xe61c179f62dae92fULL},
    {"0,1,2", 2, 0x1.9224865ef4ef4p+6, 0xf690379f62dae92fULL},
    {"1|0,2,3", 3, -0x1.a0be7db75d008p+1, 0x3a510e5b4865527fULL},
    {"0,2,3|1", 3, -0x1.b186007632758p+1, 0x4ce22434df66ad30ULL},
    {"0|1,2,3", 3, -0x1.e795811f99171p+0, 0xfc205eb3c5bd532eULL},
    {"0,1,4|2,3", 3, 0x1.42b1b239bc58ep+0, 0xa7ab2a87c7a2ba8cULL},
    {"2,3|0,1,4", 21, 0x1.1f7042bbba426p+1, 0x94679bdf2d2f8f2eULL},
    {"0,1|2,3,4", 21, 0x1.1f7042bbba422p+1, 0xccf574622a04f2c1ULL},
    {"0,2,3,4,5|1", 4, -0x1.2fe641be62543p+2, 0x5458419a72fffd5bULL},
    {"0,1,3,4,5|2", 3, -0x1.4b817c5ffbfcep+2, 0xfd654f8df7821378ULL},
    {"2|0,1,3,4,5", 3, -0x1.cb0761317db4dp+1, 0x1547c9fe01f9cedfULL},
    {"0,2|3|1", 3, 0x1.81efb5cd47446p+0, 0x81663b4df80f1506ULL},
    {"0|2|1,3", 3, 0x1.006d2a4759183p+1, 0x66e0c79b2cbdd26aULL},
    {"1|0,3|2", 3, 0x1.52f21e8ecba24p+1, 0x43ba59b9ff607e27ULL},
    {"0,1,2,3,4", 2, 0x1.358489dc746c8p+5, 0x7824a79f62dae92fULL},
    {"0,1,2,3,4", 2, 0x1.358489dc746c8p+5, 0x695b179f62dae92fULL},
    {"0,1,2,3,4", 2, 0x1.358489dc746c8p+5, 0x7164d79f62dae92fULL},
    {"0,1,2,3,4,5", 2, 0x1.9224865ef4e1fp+6, 0xaca792f5ac1a7cceULL},
    {"0,1,2,3,4,5", 2, 0x1.9224865ef4ef3p+6, 0x2d46979f62dae92fULL},
    {"0,1,2,3,4,5", 2, 0x1.9224865ef4ef3p+6, 0xcb0a779f62dae92fULL},
    {"2,4|5|0,1,3,6", 3, -0x1.7ac7064f796ebp+1, 0x9fee8a74067ac34dULL},
    {"0,1,2,5,6|3|4", 3, -0x1.d28458e7b4b2fp+1, 0x0274590cd8277308ULL},
    {"0,4,6|1,2|3,5", 3, -0x1.7495aa9e8fa76p+1, 0xefd3ad54508f1c38ULL},
    {"0,1,6,7|2,3|4,5", 3, 0x1.e87a0a21df1c6p+1, 0x00f059b9ff607e27ULL},
    {"0,1,6,7|2,3|4,5", 3, 0x1.e87a0a21df1c6p+1, 0x00f059b9ff607e27ULL},
    {"0,1,6,7|2,3|4,5", 3, 0x1.e87a0a21df1c6p+1, 0x00f059b9ff607e27ULL},
};
// clang-format on

/// The mixture packed as reduce_em_rows reads it.
struct Rows {
  explicit Rows(const stats::GaussianMixture& mixture) {
    for (const auto& part : mixture.components()) {
      const auto& mean = part.gaussian.mean().data();
      const auto& cov = part.gaussian.cov().data();
      rows.insert(rows.end(), mean.begin(), mean.end());
      rows.insert(rows.end(), cov.begin(), cov.end());
      weights.push_back(part.weight);
    }
  }
  std::vector<double> rows;
  std::vector<double> weights;
};

std::string label(const CaseSpec& c, std::size_t index) {
  return "case " + std::to_string(index) + ": d " + std::to_string(c.d) +
         " k " + std::to_string(c.k) + " l " + std::to_string(c.l) +
         " restarts " + std::to_string(c.restarts) + " shape " +
         std::to_string(static_cast<int>(c.shape));
}

TEST(ReduceEmGolden, CaseListCoversEveryShapeAndRestartCount) {
  const std::vector<CaseSpec> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t shape = 0; shape < kShapes; ++shape) {
    for (const std::size_t restarts : {1, 2, 4}) {
      std::size_t hits = 0;
      for (const CaseSpec& c : cases) {
        hits += static_cast<std::size_t>(c.shape) == shape &&
                c.restarts == restarts;
      }
      EXPECT_GT(hits, 0U) << "shape " << shape << " restarts " << restarts;
    }
  }
}

TEST(ReduceEmGolden, RowsMatchRecordedBits) {
  const std::vector<CaseSpec> cases = golden_cases();
  EmWorkspace ws;
  core::Grouping groups;
  for (std::size_t index = 0; index < cases.size(); ++index) {
    const CaseSpec& c = cases[index];
    const Golden& want = kGolden[index];
    const Rows packed(golden_input(c.d, c.l, c.shape, c.input_seed));
    stats::Rng rng(c.em_seed);
    const RowsReduction got =
        reduce_em_rows(packed.rows.data(), packed.weights.data(), c.l, c.d,
                       c.k, ws, groups, &rng, {.restarts = c.restarts});
    EXPECT_EQ(groups_text(groups, got.groups), want.groups) << label(c, index);
    EXPECT_EQ(got.iterations, want.iterations) << label(c, index);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective))
        << label(c, index) << " objective " << got.objective;
  }
}

TEST(ReduceEmGolden, AdapterMatchesRecordedBits) {
  const std::vector<CaseSpec> cases = golden_cases();
  for (std::size_t index = 0; index < cases.size(); ++index) {
    const CaseSpec& c = cases[index];
    const Golden& want = kGolden[index];
    stats::Rng rng(c.em_seed);
    const ReductionResult got =
        reduce_em(golden_input(c.d, c.l, c.shape, c.input_seed), c.k, rng,
                  {.restarts = c.restarts});
    EXPECT_EQ(groups_text(got.groups, got.groups.size()), want.groups)
        << label(c, index);
    EXPECT_EQ(got.iterations, want.iterations) << label(c, index);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective))
        << label(c, index);
    EXPECT_EQ(mixture_hash(got.mixture), want.mixture_hash) << label(c, index);
  }
}

TEST(ReduceEmGolden, JitterExhaustionThrowsTheSameError) {
  // Two copies of a strongly indefinite covariance: even +1e3·I leaves
  // the floored matrix indefinite, so every factorization try fails.
  stats::GaussianMixture input;
  for (int i = 0; i < 2; ++i) {
    input.add({1.0, stats::Gaussian(linalg::Vector{0.0, 0.0},
                                    linalg::Matrix{{1.0, 1e4}, {1e4, 1.0}})});
  }
  const Rows packed(input);
  EmWorkspace ws;
  core::Grouping groups;
  const std::string want =
      "regularized_cholesky: matrix not positive definite even after "
      "maximal jitter";
  try {
    (void)reduce_em_rows(packed.rows.data(), packed.weights.data(), 2, 2, 1,
                         ws, groups, nullptr);
    ADD_FAILURE() << "reduce_em_rows did not throw";
  } catch (const NumericalError& error) {
    EXPECT_EQ(error.what(), want);
  }
  stats::Rng rng(1);
  EXPECT_THROW((void)reduce_em(input, 1, rng), NumericalError);
}

TEST(ReduceEmGolden, RestartsBeyondOneNeedAnRng) {
  const Rows packed(golden_input(2, 4, Shape::random, 5));
  EmWorkspace ws;
  core::Grouping groups;
  EXPECT_THROW((void)reduce_em_rows(packed.rows.data(), packed.weights.data(),
                                    4, 2, 2, ws, groups, nullptr,
                                    {.restarts = 2}),
               ContractViolation);
}

}  // namespace
}  // namespace ddc::em
