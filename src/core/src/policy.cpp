#include <ddc/core/policy.hpp>

namespace ddc::core {

bool is_valid_grouping(std::span<const std::vector<std::size_t>> grouping,
                       std::size_t size, std::vector<bool>& seen) {
  seen.assign(size, false);
  std::size_t covered = 0;
  for (const auto& group : grouping) {
    if (group.empty()) return false;
    for (const std::size_t j : group) {
      if (j >= size || seen[j]) return false;
      seen[j] = true;
      ++covered;
    }
  }
  return covered == size;
}

bool is_valid_grouping(const Grouping& grouping, std::size_t size) {
  std::vector<bool> seen;
  return is_valid_grouping(grouping, size, seen);
}

}  // namespace ddc::core
