#include <ddc/summaries/centroid.hpp>

#include <ddc/common/assert.hpp>
#include <ddc/linalg/moments.hpp>

namespace ddc::summaries {

using linalg::Vector;

CentroidPolicy::Summary CentroidPolicy::merge_set(
    const std::vector<core::WeightedSummary<Summary>>& parts) {
  DDC_EXPECTS(!parts.empty());
  const std::size_t d = parts.front().summary.dim();
  for (const auto& p : parts) DDC_EXPECTS(p.summary.dim() == d);
  Vector acc(d);
  merge_rows(
      parts.size(),
      [&](std::size_t j) { return parts[j].summary.data().data(); },
      [&](std::size_t j) { return parts[j].weight; }, acc.data().data(), d);
  return acc;
}

CentroidPolicy::Summary CentroidPolicy::summarize_mixture(
    const std::vector<Value>& inputs, const Vector& aux) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(aux.dim() == inputs.size());
  double total = 0.0;
  Vector acc(inputs.front().dim());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    DDC_EXPECTS(aux[i] >= 0.0);
    total += aux[i];
    linalg::add_scaled(acc, aux[i], inputs[i]);
  }
  DDC_EXPECTS(total > 0.0);
  return acc / total;
}

bool CentroidPolicy::approx_equal(const Summary& a, const Summary& b,
                                  double tol) {
  if (a.dim() != b.dim()) return false;
  return linalg::distance2(a, b) <= tol;
}

}  // namespace ddc::summaries
