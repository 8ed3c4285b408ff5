#include <ddc/summaries/gaussian_summary.hpp>

#include <ddc/common/assert.hpp>
#include <ddc/linalg/moments.hpp>

namespace ddc::summaries {

using linalg::Matrix;
using linalg::Vector;
using stats::Gaussian;

GaussianPolicy::Summary GaussianPolicy::merge_set(
    const std::vector<core::WeightedSummary<Summary>>& parts) {
  DDC_EXPECTS(!parts.empty());
  // stats::moment_match straight off the parts (no WeightedGaussian copy).
  const std::size_t d = parts.front().summary.dim();
  std::vector<stats::PackedGaussian> packed;
  packed.reserve(parts.size());
  for (const auto& p : parts) {
    DDC_EXPECTS(p.summary.dim() == d);
    packed.push_back({p.weight, p.summary.mean().data().data(),
                      p.summary.cov().data().data()});
  }
  return stats::moment_match(packed, d);
}

GaussianPolicy::Summary GaussianPolicy::summarize_mixture(
    const std::vector<Value>& inputs, const Vector& aux) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(aux.dim() == inputs.size());
  double total = 0.0;
  Vector mean(inputs.front().dim());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    DDC_EXPECTS(aux[i] >= 0.0);
    total += aux[i];
    linalg::add_scaled(mean, aux[i], inputs[i]);
  }
  DDC_EXPECTS(total > 0.0);
  mean /= total;
  linalg::WeightedMomentAccumulator acc(mean.dim());
  acc.accumulate_mean(1.0, mean);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (aux[i] == 0.0) continue;
    acc.accumulate_spread(aux[i] / total, inputs[i]);
  }
  return Gaussian(std::move(mean), linalg::symmetrize(acc.take_cov()));
}

bool GaussianPolicy::approx_equal(const Summary& a, const Summary& b,
                                  double tol) {
  if (a.dim() != b.dim()) return false;
  return linalg::distance2(a.mean(), b.mean()) <= tol &&
         linalg::max_abs(a.cov() - b.cov()) <= tol;
}

stats::GaussianMixture to_mixture(
    const core::Classification<stats::Gaussian>& classification) {
  DDC_EXPECTS(!classification.empty());
  std::vector<stats::WeightedGaussian> components;
  components.reserve(classification.size());
  for (std::size_t i = 0; i < classification.size(); ++i) {
    components.push_back(
        {classification.relative_weight(i), classification[i].summary});
  }
  return stats::GaussianMixture(std::move(components));
}

}  // namespace ddc::summaries
