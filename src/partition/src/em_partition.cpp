#include <ddc/partition/em_partition.hpp>

#include <algorithm>

#include <ddc/common/assert.hpp>
#include <ddc/common/timing.hpp>
#include <ddc/stats/mixture.hpp>

namespace ddc::partition {

namespace {

stats::GaussianMixture to_input_mixture(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections) {
  DDC_EXPECTS(!collections.empty());
  std::vector<stats::WeightedGaussian> components;
  components.reserve(collections.size());
  for (const auto& c : collections) {
    components.push_back({c.weight, c.summary});
  }
  return stats::GaussianMixture(std::move(components));
}

}  // namespace

core::Grouping EmPartition::partition(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
    std::size_t k) {
  DDC_EXPECTS(!collections.empty());
  const std::size_t l = collections.size();
  const std::size_t d = collections.front().summary.dim();
  const std::size_t sd = d + d * d;
  core::Grouping groups;
  timed_phase(em_seconds_, [&] {
    rows_.resize(l * sd);
    weights_.resize(l);
    for (std::size_t i = 0; i < l; ++i) {
      const stats::Gaussian& g = collections[i].summary;
      DDC_EXPECTS(g.dim() == d);
      std::copy_n(g.mean().data().data(), d, rows_.data() + i * sd);
      std::copy_n(g.cov().data().data(), d * d, rows_.data() + i * sd + d);
      weights_[i] = collections[i].weight;
    }
    groups.resize(em::reduce_em_rows(rows_.data(), weights_.data(), l, d, k,
                                     workspace_, groups, &rng_, options_)
                      .groups);
  });
  return groups;
}

core::Grouping RunnallsPartition::partition(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
    std::size_t k) const {
  return em::reduce_runnalls(to_input_mixture(collections), k).groups;
}

core::Grouping NearestMeansPartition::partition(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
    std::size_t k) const {
  return em::reduce_nearest_means(to_input_mixture(collections), k).groups;
}

}  // namespace ddc::partition
