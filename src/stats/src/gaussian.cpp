#include <ddc/stats/gaussian.hpp>

#include <cmath>
#include <numbers>

#include <algorithm>

#include <ddc/common/error.hpp>

namespace ddc::stats {

using linalg::Cholesky;
using linalg::Matrix;
using linalg::Vector;

Gaussian::Gaussian(std::size_t dim)
    : mean_(dim), cov_(Matrix::identity(dim)) {}

Gaussian::Gaussian(Vector mean, Matrix cov)
    : mean_(std::move(mean)), cov_(std::move(cov)) {
  DDC_EXPECTS(cov_.square());
  DDC_EXPECTS(cov_.rows() == mean_.dim());
  symmetrize_checked(cov_.data().data(), cov_.rows());
}

Gaussian Gaussian::point_mass(Vector mean) {
  const std::size_t d = mean.dim();
  return Gaussian(std::move(mean), Matrix(d, d));
}

Gaussian Gaussian::spherical(Vector mean, double stddev) {
  DDC_EXPECTS(stddev >= 0.0);
  const std::size_t d = mean.dim();
  return Gaussian(std::move(mean), Matrix::identity(d) * (stddev * stddev));
}

const Cholesky& Gaussian::factor() const {
  if (!factor_) factor_ = linalg::regularized_cholesky(cov_);
  return *factor_;
}

double Gaussian::mahalanobis_squared(const Vector& x) const {
  DDC_EXPECTS(x.dim() == dim());
  return factor().mahalanobis_squared(x - mean_);
}

double Gaussian::log_pdf(const Vector& x) const {
  DDC_EXPECTS(x.dim() == dim());
  const double d = static_cast<double>(dim());
  return -0.5 * (d * std::log(2.0 * std::numbers::pi) + factor().log_det() +
                 mahalanobis_squared(x));
}

double Gaussian::pdf(const Vector& x) const { return std::exp(log_pdf(x)); }

Vector Gaussian::sample(Rng& rng) const {
  const std::size_t d = dim();
  Vector z(d);
  for (std::size_t i = 0; i < d; ++i) z[i] = rng.normal();
  return mean_ + factor().lower() * z;
}

double kl_divergence(const Gaussian& a, const Gaussian& b) {
  DDC_EXPECTS(a.dim() == b.dim());
  const double d = static_cast<double>(a.dim());
  const Cholesky fb = linalg::regularized_cholesky(b.cov());
  const Cholesky fa = linalg::regularized_cholesky(a.cov());
  const Matrix b_inv = fb.inverse();
  const double tr = linalg::trace(b_inv * a.cov());
  const double maha = fb.mahalanobis_squared(b.mean() - a.mean());
  return 0.5 * (tr + maha - d + fb.log_det() - fa.log_det());
}

double symmetric_kl(const Gaussian& a, const Gaussian& b) {
  return kl_divergence(a, b) + kl_divergence(b, a);
}

double bhattacharyya(const Gaussian& a, const Gaussian& b) {
  DDC_EXPECTS(a.dim() == b.dim());
  const Matrix avg_cov = (a.cov() + b.cov()) / 2.0;
  const Cholesky favg = linalg::regularized_cholesky(avg_cov);
  const Cholesky fa = linalg::regularized_cholesky(a.cov());
  const Cholesky fb = linalg::regularized_cholesky(b.cov());
  const double maha = favg.mahalanobis_squared(a.mean() - b.mean());
  const double log_ratio =
      favg.log_det() - 0.5 * (fa.log_det() + fb.log_det());
  return maha / 8.0 + 0.5 * log_ratio;
}

double expected_log_pdf(const Gaussian& a, const Gaussian& b) {
  // Rides the hoisted scorer so the one-shot path shares the packed
  // kernel implementation instead of duplicating the Cholesky/inverse
  // transcription inline (scorer_test checks the exact equivalence to
  // the textbook formula). Callers scoring many inputs against one
  // model should hold a scorer instead.
  DDC_EXPECTS(a.dim() == b.dim());
  return ExpectedLogPdfScorer(b).score(a);
}

ExpectedLogPdfScorer::ExpectedLogPdfScorer(const Gaussian& model)
    : d_(model.dim()), scratch_(8 * model.dim()) {
  const Cholesky factor = linalg::regularized_cholesky(model.cov());
  const Matrix inverse = factor.inverse();
  base_ = static_cast<double>(d_) * std::log(2.0 * std::numbers::pi) +
          factor.log_det();
  store_.resize(d_ + 2 * d_ * d_);
  double* out = store_.data();
  out = std::copy(model.mean().data().begin(), model.mean().data().end(), out);
  out = std::copy(factor.lower().data().begin(), factor.lower().data().end(),
                  out);
  std::copy(inverse.data().begin(), inverse.data().end(), out);
}

linalg::kernels::ScorerData ExpectedLogPdfScorer::view() const noexcept {
  const double* base = store_.data();
  return {d_, base, base + d_, base + d_ + d_ * d_, base_};
}

double ExpectedLogPdfScorer::score(const Gaussian& a) const {
  DDC_EXPECTS(a.dim() == d_);
  // E_{x~N(µa,Σa)}[log N(x; µb, Σb)]
  //   = −½ (d log 2π + log|Σb| + tr(Σb⁻¹ Σa) + (µa−µb)ᵀ Σb⁻¹ (µa−µb)).
  // base_ carries the first two (input-independent) terms; the kernel
  // performs the exact arithmetic of the pre-kernel implementation
  // (trace product with zero-skip, then forward substitution).
  return linalg::kernels::dispatch_dim(d_, [&](auto d) {
    return linalg::kernels::score_one<d()>(view(), a.mean().data().data(),
                                           a.cov().data().data(),
                                           scratch_.data(), d_);
  });
}

void moment_match_rows(std::span<const PackedGaussian> parts, double* mean,
                       double* cov, double* scratch, std::size_t d) {
  DDC_EXPECTS(!parts.empty());
  double total = 0.0;
  for (const PackedGaussian& p : parts) {
    DDC_EXPECTS(p.weight > 0.0);
    total += p.weight;
  }
  DDC_EXPECTS(total > 0.0);
  std::fill_n(mean, d, 0.0);
  std::fill_n(cov, d * d, 0.0);
  linalg::kernels::dispatch_dim(d, [&](auto fd) {
    for (const PackedGaussian& p : parts) {
      linalg::kernels::add_scaled<fd()>(mean, p.weight / total, p.mean, d);
    }
    for (const PackedGaussian& p : parts) {
      for (std::size_t i = 0; i < d; ++i) scratch[i] = p.mean[i] - mean[i];
      linalg::kernels::add_scaled_spread<fd()>(cov, p.weight / total, p.cov,
                                               scratch, d);
    }
  });
  linalg::symmetrize(cov, d);
}

Gaussian moment_match(std::span<const PackedGaussian> parts, std::size_t d) {
  Vector mean(d);
  Matrix cov(d, d);
  std::vector<double> scratch(d);
  moment_match_rows(parts, mean.data().data(), cov.data().data(),
                    scratch.data(), d);
  return Gaussian(std::move(mean), std::move(cov));
}

void symmetrize_checked(double* cov, std::size_t d) {
  DDC_EXPECTS(linalg::is_symmetric(cov, d, 1e-9));
  linalg::symmetrize(cov, d);
}

Gaussian moment_match(const std::vector<WeightedGaussian>& parts) {
  DDC_EXPECTS(!parts.empty());
  const std::size_t d = parts.front().gaussian.dim();
  std::vector<PackedGaussian> packed;
  packed.reserve(parts.size());
  for (const auto& p : parts) {
    DDC_EXPECTS(p.gaussian.dim() == d);
    packed.push_back({p.weight, p.gaussian.mean().data().data(),
                      p.gaussian.cov().data().data()});
  }
  return moment_match(packed, d);
}

}  // namespace ddc::stats
