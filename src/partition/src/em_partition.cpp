#include <ddc/partition/em_partition.hpp>

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
  core::Grouping groups;
  timed_phase(em_seconds_, [&] {
    groups =
        em::reduce_em(to_input_mixture(collections), k, rng_, options_).groups;
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
