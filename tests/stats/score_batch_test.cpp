// Batched scoring: equivalence matrix.
//
// The batch kernel over an ExpectedLogPdfScorer's invariants must be
// bit-identical to score() per input on every tier: the scalar reference
// kernel by construction, and the lanewise AVX2 kernel because each SIMD
// lane executes the exact scalar operation sequence (simd_avx2.cpp).
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/linalg/simd.hpp>
#include <ddc/stats/gaussian.hpp>
#include <ddc/stats/mixture.hpp>
#include <ddc/stats/rng.hpp>

namespace {

using ddc::linalg::Matrix;
using ddc::linalg::Vector;
using ddc::stats::Gaussian;
using ddc::stats::GaussianMixture;
namespace simd = ddc::linalg::simd;

/// Restores the default (auto) dispatch mode on scope exit so these
/// tests cannot leak a forced tier into the rest of the binary.
struct ModeGuard {
  ~ModeGuard() { simd::configure(simd::Mode::auto_detect); }
};

Matrix random_spd(std::size_t d, ddc::stats::Rng& rng, double ridge) {
  Matrix b(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) b(r, c) = rng.normal();
  }
  Matrix a = b * ddc::linalg::transpose(b);
  for (std::size_t i = 0; i < d; ++i) a(i, i) += ridge;
  return ddc::linalg::symmetrize(a);
}

Vector random_vector(std::size_t d, ddc::stats::Rng& rng) {
  Vector v(d);
  for (std::size_t i = 0; i < d; ++i) v[i] = rng.normal();
  return v;
}

/// Mixed batch: healthy components, point masses (zero covariance),
/// barely-ridged and near-rank-1 covariances — the shapes an EM E step
/// actually scores. Sized to cover both the 4-lane body and the
/// scalar remainder of the lanewise kernel (size % 4 == 3).
GaussianMixture adversarial_inputs(std::size_t d, ddc::stats::Rng& rng) {
  GaussianMixture out;
  for (int i = 0; i < 4; ++i) {
    out.add({1.0, Gaussian(random_vector(d, rng), random_spd(d, rng, 0.5))});
  }
  out.add({1.0, Gaussian::point_mass(random_vector(d, rng))});
  out.add({1.0, Gaussian(random_vector(d, rng), random_spd(d, rng, 1e-9))});
  Matrix u(d, 1);
  for (std::size_t r = 0; r < d; ++r) u(r, 0) = rng.normal();
  Matrix nearly = u * ddc::linalg::transpose(u);
  for (std::size_t i = 0; i < d; ++i) nearly(i, i) += 1e-10;
  out.add({1.0,
           Gaussian(random_vector(d, rng), ddc::linalg::symmetrize(nearly))});
  return out;
}

std::vector<Gaussian> test_models(std::size_t d, ddc::stats::Rng& rng) {
  std::vector<Gaussian> models;
  models.push_back(Gaussian(random_vector(d, rng), random_spd(d, rng, 0.5)));
  models.push_back(Gaussian::point_mass(random_vector(d, rng)));
  models.push_back(Gaussian(random_vector(d, rng), random_spd(d, rng, 1e-6)));
  return models;
}

/// The inputs packed structure-of-arrays: means count×d, covariances
/// count×d² — the batch kernel's input layout.
struct Batch {
  explicit Batch(const GaussianMixture& mixture) : count(mixture.size()) {
    for (const auto& part : mixture.components()) {
      const auto& mean = part.gaussian.mean().data();
      const auto& cov = part.gaussian.cov().data();
      means.insert(means.end(), mean.begin(), mean.end());
      covs.insert(covs.end(), cov.begin(), cov.end());
    }
  }
  void score(const ddc::stats::ExpectedLogPdfScorer& scorer,
             double* out) const {
    std::vector<double> scratch(8 * scorer.dim());
    simd::batch_score_kernel()(scorer.view(), means.data(), covs.data(), count,
                               out, scratch.data());
  }
  std::size_t count;
  std::vector<double> means;
  std::vector<double> covs;
};

class ScoreBatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScoreBatch, MatchesScoreExactlyOnDefaultPath) {
  // Whatever the ambient tier is (scalar everywhere, lanewise AVX2 on
  // capable hosts), the batch kernel must equal score() bit for bit.
  const std::size_t d = GetParam();
  ddc::stats::Rng rng(500 + d);
  for (int rep = 0; rep < 20; ++rep) {
    const GaussianMixture inputs = adversarial_inputs(d, rng);
    const Batch batch(inputs);
    std::vector<double> out(batch.count);
    for (const Gaussian& model : test_models(d, rng)) {
      const ddc::stats::ExpectedLogPdfScorer scorer(model);
      batch.score(scorer, out.data());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(out[i], scorer.score(inputs[i].gaussian))
            << "d=" << d << " input=" << i;
      }
    }
  }
}

TEST_P(ScoreBatch, ScalarAndLanewiseKernelsBitIdentical) {
  // The heart of the bit-exactness contract: the lanewise AVX2 kernel
  // (when this binary and CPU have it) against the scalar reference,
  // same inputs, EXPECT_EQ on every output.
  const simd::ScoreBatchFn lanewise = simd::avx2_lanewise_score_kernel();
  if (lanewise == nullptr || !simd::cpu_supports_avx2()) {
    GTEST_SKIP() << "no AVX2 kernels in this binary/CPU";
  }
  const simd::ScoreBatchFn scalar = simd::scalar_score_kernel();
  const std::size_t d = GetParam();
  ddc::stats::Rng rng(600 + d);
  ModeGuard guard;
  for (int rep = 0; rep < 20; ++rep) {
    const GaussianMixture inputs = adversarial_inputs(d, rng);
    const Batch batch(inputs);
    std::vector<double> scalar_out(batch.count);
    std::vector<double> lane_out(batch.count);
    for (const Gaussian& model : test_models(d, rng)) {
      const ddc::stats::ExpectedLogPdfScorer scorer(model);
      simd::configure(simd::Mode::scalar);
      ASSERT_EQ(simd::batch_score_kernel(), scalar);
      batch.score(scorer, scalar_out.data());
      simd::configure(simd::Mode::auto_detect);
      ASSERT_EQ(simd::batch_score_kernel(), lanewise);
      batch.score(scorer, lane_out.data());
      for (std::size_t i = 0; i < batch.count; ++i) {
        EXPECT_EQ(lane_out[i], scalar_out[i]) << "d=" << d << " input=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDims, ScoreBatch,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SimdSeam, ParseAndNames) {
  EXPECT_EQ(simd::parse_mode("auto"), simd::Mode::auto_detect);
  EXPECT_EQ(simd::parse_mode("scalar"), simd::Mode::scalar);
  EXPECT_FALSE(simd::parse_mode("avx2").has_value());
  EXPECT_FALSE(simd::parse_mode("fast").has_value());
}

TEST(SimdSeam, ScalarModeForcesCleanFallback) {
  ModeGuard guard;
  simd::configure(simd::Mode::scalar);
  EXPECT_EQ(simd::dispatch(), simd::Tier::scalar);
  EXPECT_EQ(simd::batch_score_kernel(), simd::scalar_score_kernel());
}

// Auto selects a bit-exact kernel: the lanewise AVX2 one where the CPU
// and the build allow it, the scalar reference otherwise.
TEST(SimdSeam, AutoNeverEnablesFastMath) {
  ModeGuard guard;
  simd::configure(simd::Mode::auto_detect);
  if (simd::compiled_with_avx2() && simd::cpu_supports_avx2()) {
    EXPECT_EQ(simd::dispatch(), simd::Tier::avx2);
    EXPECT_EQ(simd::batch_score_kernel(), simd::avx2_lanewise_score_kernel());
  } else {
    EXPECT_EQ(simd::dispatch(), simd::Tier::scalar);
  }
}

}  // namespace
