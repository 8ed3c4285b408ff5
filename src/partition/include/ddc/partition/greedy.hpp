// Greedy distance-based partition — the paper's Algorithm 2 `partition`,
// generalized to any summary policy.
//
// Starting from singleton groups, repeatedly merge the two groups whose
// *merged summaries* are closest under the policy's dS until at most k
// groups remain. For centroid summaries this is exactly Algorithm 2; for
// any other policy it is the natural lift. The one-quantum constraint of
// Section 4.1 is enforced by the engine, so policies only have to respect
// the k bound.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include <ddc/common/agglomerate.hpp>
#include <ddc/common/assert.hpp>
#include <ddc/core/policy.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/simd.hpp>

namespace ddc::partition {

/// PartitionPolicy: greedy closest-pair merging under SP::distance.
/// Stateless; copyable.
///
/// Runs on common::agglomerate_to_k — a cached distance matrix with
/// per-row nearest-neighbor tracking — so a partition of m collections
/// costs O(m²) distance evaluations instead of the transcription's O(m³)
/// full rescans, with bit-identical groupings (the tie-break argument
/// lives in agglomerate.hpp; NaiveGreedyDistancePartition below is the
/// reference it is tested against).
///
/// Policies that declare `kPackedEuclideanSummary` (their Summary is a
/// linalg::Vector, their distance is linalg::distance2 and they provide
/// merge_rows) additionally take a packed path: summaries live in one
/// flat row-major m×d buffer, merges fold rows in place through
/// SP::merge_rows, and the C(m,2) up-front distance-matrix fill runs
/// through linalg::simd::batch_distance_kernel(), 4 distances per AVX2
/// pass where available. Every tier of that kernel is bit-identical to
/// the scalar kernels::distance2 — which is itself a transcription of
/// linalg::distance2's accumulation order — so the grouping is
/// unchanged bit for bit (greedy_partition_property_test pits the
/// packed path against the naive reference directly). The scale
/// engine's pool receive calls partition_rows on rows it already holds,
/// with a workspace it reuses across receives.
template <core::SummaryPolicy SP>
struct GreedyDistancePartition {
  using Summary = typename SP::Summary;

  /// Caller-owned scratch of the packed path. Buffers only grow.
  struct PackedWorkspace {
    common::AgglomerationWorkspace agglomeration;
    std::vector<double> rows;     // m × d working summaries
    std::vector<double> weights;  // m working weights
    std::vector<double> merged;   // one merge result (d doubles)
  };

  [[nodiscard]] core::Grouping partition(
      const std::vector<core::WeightedSummary<Summary>>& collections,
      std::size_t k) const {
    if constexpr (requires { SP::kPackedEuclideanSummary; }) {
      if (packable(collections)) {
        const std::size_t m = collections.size();
        const std::size_t d = collections.front().summary.dim();
        PackedWorkspace ws;
        ws.rows.resize(m * d);
        ws.weights.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          std::copy_n(collections[i].summary.data().data(), d,
                      ws.rows.data() + i * d);
          ws.weights[i] = collections[i].weight;
        }
        ws.agglomeration.groups.resize(partition_rows(ws, m, d, k));
        return std::move(ws.agglomeration.groups);
      }
    }
    std::vector<core::WeightedSummary<Summary>> merged(collections.begin(),
                                                       collections.end());
    common::AgglomerationWorkspace ws;
    ws.groups.resize(common::agglomerate_to_k(
        merged.size(), k, ws,
        [&](std::size_t a, std::size_t b) {
          return SP::distance(merged[a].summary, merged[b].summary);
        },
        [&](std::size_t a, std::size_t b) {
          merged[a] = core::WeightedSummary<Summary>{
              SP::merge_set({merged[a], merged[b]}),
              merged[a].weight + merged[b].weight};
        }));
    return std::move(ws.groups);
  }

  /// The packed path on m rows of width d already loaded into ws.rows /
  /// ws.weights (overwritten as merges fold in). Returns the group count;
  /// the groups are ws.agglomeration.groups[0 .. count).
  [[nodiscard]] static std::size_t partition_rows(PackedWorkspace& ws,
                                                  std::size_t m,
                                                  std::size_t d,
                                                  std::size_t k)
    requires requires { SP::kPackedEuclideanSummary; }
  {
    DDC_EXPECTS(d >= 1);
    DDC_EXPECTS(ws.rows.size() >= m * d && ws.weights.size() >= m);
    if (ws.merged.size() < d) ws.merged.resize(d);
    double* const rows = ws.rows.data();
    double* const weights = ws.weights.data();
    double* const merged = ws.merged.data();
    const auto row = [rows, d](std::size_t i) { return rows + i * d; };
    const linalg::simd::DistanceBatchFn fill =
        linalg::simd::batch_distance_kernel();
    return common::agglomerate_to_k(
        m, k, ws.agglomeration,
        [&](std::size_t a, std::size_t b) {
          // Post-merge refresh distances: one pair at a time off the
          // packed rows — kernels::distance2 is bit-identical to
          // SP::distance (linalg::distance2) on the same components.
          return linalg::kernels::dispatch_dim(d, [&](auto dd) {
            return linalg::kernels::distance2<dd()>(row(a), row(b), d);
          });
        },
        [&](std::size_t a, std::size_t b) {
          const std::size_t pair[2] = {a, b};
          SP::merge_rows(
              2, [&](std::size_t j) { return row(pair[j]); },
              [&](std::size_t j) { return weights[pair[j]]; }, merged, d);
          std::copy_n(merged, d, row(a));
          weights[a] += weights[b];
        },
        [&](std::size_t a, std::size_t count, double* out) {
          fill(row(a), row(a + 1), count, out, d);
        });
  }

 private:
  /// The packed path needs one uniform row width; mixed-dimension
  /// inputs (never produced by the protocol, but legal for the API)
  /// fall back to the generic path.
  [[nodiscard]] static bool packable(
      const std::vector<core::WeightedSummary<Summary>>& collections) {
    if (collections.empty()) return false;
    const std::size_t d = collections.front().summary.dim();
    if (d == 0) return false;
    for (const auto& c : collections) {
      if (c.summary.dim() != d) return false;
    }
    return true;
  }
};

/// The direct transcription of Algorithm 2: every round rescans all
/// pairs (O(m³) distance evaluations) and compacts with quadratic
/// erases. Retained as the reference the optimized policy must match
/// bit for bit — greedy_partition_property_test checks the equivalence
/// on randomized inputs, and the partition benchmarks use it as the
/// "before" side. Not for production use.
template <core::SummaryPolicy SP>
struct NaiveGreedyDistancePartition {
  using Summary = typename SP::Summary;

  [[nodiscard]] core::Grouping partition(
      const std::vector<core::WeightedSummary<Summary>>& collections,
      std::size_t k) const {
    DDC_EXPECTS(k >= 1);
    core::Grouping groups(collections.size());
    std::vector<core::WeightedSummary<Summary>> merged;
    merged.reserve(collections.size());
    for (std::size_t i = 0; i < collections.size(); ++i) {
      groups[i] = {i};
      merged.push_back(collections[i]);
    }

    while (groups.size() > k) {
      // Algorithm 2, lines 8–10: find and merge the closest pair.
      std::size_t best_a = 0;
      std::size_t best_b = 1;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a + 1 < groups.size(); ++a) {
        for (std::size_t b = a + 1; b < groups.size(); ++b) {
          const double d = SP::distance(merged[a].summary, merged[b].summary);
          if (d < best) {
            best = d;
            best_a = a;
            best_b = b;
          }
        }
      }
      merged[best_a] = core::WeightedSummary<Summary>{
          SP::merge_set({merged[best_a], merged[best_b]}),
          merged[best_a].weight + merged[best_b].weight};
      groups[best_a].insert(groups[best_a].end(), groups[best_b].begin(),
                            groups[best_b].end());
      merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(best_b));
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(best_b));
    }
    return groups;
  }
};

}  // namespace ddc::partition
