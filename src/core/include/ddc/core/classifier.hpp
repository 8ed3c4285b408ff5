// The generic distributed classification engine — paper Algorithm 1.
//
// GenericClassifier is the per-node state machine, written against two
// compile-time policies (the paper's instantiation functions) and kept
// deliberately transport-agnostic: `split()` produces the classification
// to hand to a neighbor, `receive()` consumes one. The gossip runtimes in
// src/gossip bind it to the network simulator; tests drive it directly.
//
// Engine-enforced guarantees, independent of the policies plugged in:
//   * weight conservation: split() and receive() preserve the total number
//     of weight quanta held by the node plus the quanta handed out;
//   * the k-bound: after receive() at most k collections remain;
//   * the one-quantum rule (Section 4.1 constraint (2)): a group that is a
//     lone collection of weight q is re-homed into the nearest other group
//     before merging, whatever the partition policy returned;
//   * auxiliary correctness: when tracking is on, the mixture-space vector
//     of every collection is maintained exactly as in the paper's
//     dashed-frame auxiliary code, so Lemma 1 can be *checked* at runtime.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/common/timing.hpp>
#include <ddc/core/collection.hpp>
#include <ddc/core/policy.hpp>
#include <ddc/core/weight.hpp>
#include <ddc/linalg/vector.hpp>

namespace ddc::core {

/// Configuration of a classifier node.
struct ClassifierOptions {
  /// Maximum number of collections a node may hold (the paper's k).
  std::size_t k = 2;

  /// Weight resolution: the paper's q is 1/quanta_per_unit. Must satisfy
  /// quanta_per_unit ≫ number of nodes for the algorithm's assumption
  /// q ≪ 1/n to hold.
  std::int64_t quanta_per_unit = std::int64_t{1} << 20;

  /// When true, every collection carries its auxiliary mixture-space
  /// vector (O(num_nodes) memory per collection). For tests and metrics.
  bool track_aux = false;

  /// Total number of nodes (aux-vector dimension). Required iff track_aux.
  std::size_t num_nodes = 0;

  /// This node's input index in the mixture space. Required iff track_aux.
  std::size_t node_index = 0;
};

/// Counters describing the work a classifier has performed.
struct ClassifierStats {
  std::uint64_t splits = 0;
  std::uint64_t receives = 0;
  std::uint64_t collections_merged = 0;
  std::uint64_t singleton_rehomes = 0;
  /// Wall-clock spent inside the partition policy, accumulated across
  /// receives (two clock reads per receive — cheap next to the partition
  /// itself). Feeds `ddcsim --timing`.
  double partition_seconds = 0.0;
};

/// Constraint (2) of Section 4.1: every collection of weight exactly q
/// must be merged with at least one other. Repairs groups[0 .. count):
/// a group that is a lone collection of one quantum
/// (`single_quantum(j)`) moves into the group holding the nearest other
/// collection under `distance(lone, j)` (first strict minimum in group,
/// then member order — the proof only needs *some* merge to happen;
/// nearest keeps the repair quality-neutral), and its now-empty slot is
/// removed, preserving the order of the rest. Removed entries rotate
/// past the returned count instead of being destroyed, so their
/// capacity survives for reuse. Returns the new group count.
template <typename SingleQuantumFn, typename DistanceFn>
[[nodiscard]] std::size_t rehome_quantum_singletons(
    Grouping& groups, std::size_t count, SingleQuantumFn&& single_quantum,
    DistanceFn&& distance) {
  if (count <= 1) return count;  // nothing to re-home into
  for (std::size_t g = 0; g < count;) {
    if (groups[g].size() != 1 || !single_quantum(groups[g].front())) {
      ++g;
      continue;
    }
    const std::size_t lone = groups[g].front();
    // Find the nearest collection in any other group.
    std::size_t best_group = count;
    double best_distance = 0.0;
    for (std::size_t h = 0; h < count; ++h) {
      if (h == g) continue;
      for (const std::size_t j : groups[h]) {
        const double dist = distance(lone, j);
        if (best_group == count || dist < best_distance) {
          best_group = h;
          best_distance = dist;
        }
      }
    }
    DDC_ASSERT(best_group < count);
    groups[best_group].push_back(lone);
    std::rotate(groups.begin() + static_cast<std::ptrdiff_t>(g),
                groups.begin() + static_cast<std::ptrdiff_t>(g) + 1,
                groups.begin() + static_cast<std::ptrdiff_t>(count));
    --count;
    // Do not advance g: the element now at position g is unexamined.
  }
  return count;
}

/// Algorithm 1's grouping step over m collections, shared by
/// GenericClassifier::receive and the scale engine's pool receive:
/// `partition()` runs the policy into groups[0 .. count) and returns
/// count; the result is checked (a partition of {0, …, m−1} into at most
/// k groups — `seen` is the check's reusable scratch) and repaired by
/// rehome_quantum_singletons. The partition and the re-home are timed
/// into stats.partition_seconds; re-homes are counted. Returns the final
/// group count.
template <typename PartitionFn, typename SingleQuantumFn, typename DistanceFn>
[[nodiscard]] std::size_t group_collections(
    Grouping& groups, std::size_t m, std::size_t k, std::vector<bool>& seen,
    ClassifierStats& stats, PartitionFn&& partition,
    SingleQuantumFn&& single_quantum, DistanceFn&& distance) {
  std::size_t kept = 0;
  timed_phase(stats.partition_seconds, [&] {
    const std::size_t count = partition();
    DDC_ENSURES(is_valid_grouping(
        std::span<const std::vector<std::size_t>>(groups.data(), count), m,
        seen));
    DDC_ENSURES(count <= k);
    kept = rehome_quantum_singletons(groups, count, single_quantum, distance);
    stats.singleton_rehomes += count - kept;
  });
  return kept;
}

/// Per-node engine of the generic algorithm, instantiated with a
/// SummaryPolicy (domain S, valToSummary, mergeSet, dS) and a
/// PartitionPolicy (the merge-decision heuristic).
template <SummaryPolicy SP, PartitionPolicy<typename SP::Summary> PP>
class GenericClassifier {
 public:
  using Value = typename SP::Value;
  using Summary = typename SP::Summary;
  /// The wire format: a classification (Algorithm 1 sends one per gossip
  /// exchange; its size is bounded by k, independent of n).
  using Message = Classification<Summary>;

  /// Initializes the node with its input value (Algorithm 1, line 2):
  /// one collection of weight 1 whose summary is valToSummary(input).
  GenericClassifier(const Value& input, PP partition_policy,
                    ClassifierOptions options)
      : partition_policy_(std::move(partition_policy)),
        options_(options) {
    DDC_EXPECTS(options_.k >= 1);
    DDC_EXPECTS(options_.quanta_per_unit >= 1);
    if (options_.track_aux) {
      DDC_EXPECTS(options_.num_nodes > 0);
      DDC_EXPECTS(options_.node_index < options_.num_nodes);
    }
    Collection<Summary> initial{
        SP::val_to_summary(input), Weight::one(options_.quanta_per_unit), {}};
    if (options_.track_aux) {
      initial.aux =
          linalg::unit_vector(options_.num_nodes, options_.node_index);
    }
    classification_.add(std::move(initial));
  }

  /// Algorithm 1, lines 5–7: halves every collection, keeps one half and
  /// returns the other for transmission. Collections whose weight is a
  /// single quantum cannot be halved; they stay whole and contribute
  /// nothing to the message (which may therefore be empty).
  [[nodiscard]] Message split() {
    ++stats_.splits;
    Message outgoing;
    for (auto& c : classification_.collections()) {
      const Weight kept = c.weight.half();
      const Weight sent = c.weight.remainder_after_half();
      DDC_ASSERT(kept + sent == c.weight);
      if (sent.is_zero()) continue;  // 1-quantum collection: nothing to send
      Collection<Summary> out{c.summary, sent, {}};
      if (c.aux) {
        // Auxiliary code of Algorithm 1: scale by the exact weight ratios.
        const double kept_ratio = static_cast<double>(kept.quanta()) /
                                  static_cast<double>(c.weight.quanta());
        out.aux = *c.aux * (1.0 - kept_ratio);
        *c.aux *= kept_ratio;
      }
      c.weight = kept;
      outgoing.add(std::move(out));
    }
    return outgoing;
  }

  /// Algorithm 1, lines 8–11: unions `incoming` with the local
  /// classification, asks the partition policy for a grouping, repairs the
  /// one-quantum rule if necessary, and merges each group with mergeSet.
  void receive(Message incoming) {
    ++stats_.receives;
    Classification<Summary> big_set = std::move(classification_);
    classification_ = Classification<Summary>();
    big_set.absorb(std::move(incoming));
    DDC_ASSERT(!big_set.empty());

    Grouping groups = compute_grouping(big_set);
    // The working copies are dead once used; dropping them (capacity
    // kept) leaves a node holding only its classification between
    // receives, which is most of the object engine's memory at scale.
    flat_.clear();
    merge_groups(std::move(big_set), groups);
    parts_.clear();
    DDC_ENSURES(classification_.size() <= options_.k);
  }

  /// The node's current classification (the paper's classificationᵢ(t)).
  [[nodiscard]] const Classification<Summary>& classification() const noexcept {
    return classification_;
  }

  /// Mutable access to the classification, for LOADING externally held
  /// state (the differential tests seed a node's collections directly).
  /// The caller owns the invariants while mutating: positive weights,
  /// size within [1, k].
  [[nodiscard]] Classification<Summary>& mutable_classification() noexcept {
    return classification_;
  }

  [[nodiscard]] const ClassifierOptions& options() const noexcept {
    return options_;
  }

  [[nodiscard]] const ClassifierStats& stats() const noexcept { return stats_; }

  /// The partition policy (e.g. to inspect an EM policy's diagnostics).
  [[nodiscard]] const PP& partition_policy() const noexcept {
    return partition_policy_;
  }

 private:
  /// Runs the policy and enforces the structural constraints of
  /// Section 4.1 on its output (group_collections).
  [[nodiscard]] Grouping compute_grouping(const Classification<Summary>& big_set) {
    flat_.clear();
    flat_.reserve(big_set.size());
    for (const auto& c : big_set) {
      flat_.push_back(WeightedSummary<Summary>{
          c.summary, static_cast<double>(c.weight.quanta())});
    }
    Grouping groups;
    groups.resize(group_collections(
        groups, flat_.size(), options_.k, seen_, stats_,
        [&] {
          groups = partition_policy_.partition(flat_, options_.k);
          return groups.size();
        },
        [&](std::size_t j) { return big_set[j].weight.is_single_quantum(); },
        [&](std::size_t a, std::size_t b) {
          return SP::distance(flat_[a].summary, flat_[b].summary);
        }));
    return groups;
  }

  /// Merges each group into one collection (Algorithm 1, line 11).
  /// Singleton groups keep their collection unchanged — mergeSet over one
  /// part is the identity by R4, and skipping it avoids numerical drift.
  void merge_groups(Classification<Summary>&& big_set, const Grouping& groups) {
    for (const auto& group : groups) {
      DDC_ASSERT(!group.empty());
      if (group.size() == 1) {
        classification_.add(std::move(big_set[group.front()]));
        continue;
      }
      parts_.clear();
      parts_.reserve(group.size());
      Weight weight;
      std::optional<linalg::Vector> aux;
      for (const std::size_t j : group) {
        auto& c = big_set[j];
        parts_.push_back(WeightedSummary<Summary>{
            c.summary, static_cast<double>(c.weight.quanta())});
        weight += c.weight;
        if (c.aux) {
          if (aux) {
            *aux += *c.aux;
          } else {
            aux = std::move(*c.aux);
          }
        }
      }
      stats_.collections_merged += group.size();
      classification_.add(Collection<Summary>{SP::merge_set(parts_), weight,
                                              std::move(aux)});
    }
  }

  PP partition_policy_;
  ClassifierOptions options_;
  Classification<Summary> classification_;
  ClassifierStats stats_;
  // Scratch reused across receives: the flattened working set handed to
  // the partition policy, the per-group merge parts and the grouping
  // check's marks. All are rebuilt (clear + refill) on every use;
  // keeping the capacity avoids three allocations per receive and several
  // per merge on the split/receive hot cycle.
  std::vector<WeightedSummary<Summary>> flat_;
  std::vector<WeightedSummary<Summary>> parts_;
  std::vector<bool> seen_;  // is_valid_grouping's marks
};

}  // namespace ddc::core
