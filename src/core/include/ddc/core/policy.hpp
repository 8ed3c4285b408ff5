// Instantiation points of the generic algorithm (paper Section 4).
//
// Algorithm 1 is generic in a summary domain S and three functions:
// valToSummary, mergeSet, and partition, subject to requirements R1–R4.
// We express the instantiation as two C++20 concepts:
//
//   * SummaryPolicy  — S, valToSummary, mergeSet, and the pseudo-metric dS.
//     R2 (values map to their summaries) is the definition of
//     val_to_summary; R3 (scale invariance) and R4 (merge commutes with
//     summarization) cannot be captured in the type system and are
//     enforced by the parameterized property tests in
//     tests/summaries/requirements_test.cpp. R1 (Lipschitz w.r.t. the
//     mixture metric) is validated statistically there as well.
//
//   * PartitionPolicy — the merge-decision heuristic. The engine, not the
//     policy, enforces the two structural constraints of Section 4.1
//     (at most k groups; no singleton group holding exactly one quantum).
#pragma once

#include <concepts>
#include <cstddef>
#include <span>
#include <vector>

#include <ddc/core/collection.hpp>

namespace ddc::core {

/// Grouping produced by a partition policy: `groups[x]` lists the indices
/// of the input collections merged into output collection x. A valid
/// grouping is a partition of {0, …, input_size−1} into nonempty groups.
using Grouping = std::vector<std::vector<std::size_t>>;

/// An instantiation's summary domain and summary-manipulation functions.
template <typename P>
concept SummaryPolicy = requires(
    const typename P::Value& value,
    const std::vector<WeightedSummary<typename P::Summary>>& parts,
    const typename P::Summary& s) {
  typename P::Value;
  typename P::Summary;
  /// valToSummary: the summary of the one-value collection {⟨value, 1⟩}.
  { P::val_to_summary(value) } -> std::convertible_to<typename P::Summary>;
  /// mergeSet: the summary of the union of weighted collections.
  /// Must satisfy R3 (invariant under scaling all weights) and R4
  /// (equals summarizing the merged value multiset).
  { P::merge_set(parts) } -> std::convertible_to<typename P::Summary>;
  /// dS: pseudo-metric on summaries (used by convergence metrics and by
  /// the engine's fallback re-homing of one-quantum singleton groups).
  { P::distance(s, s) } -> std::convertible_to<double>;
};

/// A merge-decision heuristic for Algorithm 1's partition step. May be
/// stateful (e.g. hold an RNG for EM restarts); the engine calls it with
/// the combined collection set and the bound k and expects *some* grouping
/// with at most k groups — structural constraints are re-checked and, for
/// the one-quantum rule, repaired by the engine.
template <typename P, typename Summary>
concept PartitionPolicy = requires(
    P& p, const std::vector<WeightedSummary<Summary>>& collections,
    std::size_t k) {
  { p.partition(collections, k) } -> std::convertible_to<Grouping>;
};

/// Checks that `grouping` is a partition of {0, …, size−1} into nonempty
/// groups. Used by the engine (as a contract on policies) and by tests.
/// `seen` is caller-owned scratch, so a caller that keeps it across calls
/// checks without allocating.
[[nodiscard]] bool is_valid_grouping(
    std::span<const std::vector<std::size_t>> grouping, std::size_t size,
    std::vector<bool>& seen);

/// Convenience form with its own scratch.
[[nodiscard]] bool is_valid_grouping(const Grouping& grouping, std::size_t size);

}  // namespace ddc::core
