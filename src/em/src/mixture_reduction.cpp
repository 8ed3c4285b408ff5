#include <ddc/em/mixture_reduction.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>

#include <ddc/common/agglomerate.hpp>
#include <ddc/common/assert.hpp>
#include <ddc/linalg/cholesky.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/simd.hpp>

namespace ddc::em {

using stats::Gaussian;
using stats::GaussianMixture;
using stats::WeightedGaussian;

namespace {

/// Identity pass-through when no reduction is needed.
ReductionResult identity_result(const GaussianMixture& input) {
  ReductionResult out;
  out.mixture = input;
  out.groups.resize(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) out.groups[i] = {i};
  out.objective = std::numeric_limits<double>::quiet_NaN();
  return out;
}

/// One reduce_em_rows call at the fixed dimension D (kernels::kDynamic
/// beyond 4): the GaussianMixture EM's arithmetic in its order, each
/// Gaussian construction replaced by its effect (symmetrize_checked).
template <std::size_t D>
class PackedEm {
 public:
  PackedEm(EmWorkspace& ws, const double* weights, std::size_t l,
           std::size_t d, std::size_t k)
      : ws_(ws), w_(weights), l_(l), d_(d), dd_(d * d) {
    ws_.model_weights.resize(k);
    ws_.model_means.resize(k * d);
    ws_.model_covs.resize(k * dd_);
    ws_.log_priors.resize(k);
    ws_.scores.resize(k * l);
    ws_.resp.resize(l * k);
    ws_.assignment.resize(l);
    ws_.best_assignment.resize(l);
    for (std::size_t i = 0; i < l; ++i) total_ += w_[i];

    // The E step's covariance floor: 1% of the overall variance of the
    // inputs' moment-matched collapse, at least 1e-12. It must be a
    // visible fraction of the spread: scoring a broad input against a
    // floored point-mass model costs ≈ Σ_input/floor, and a floor far
    // below the spread lets far broad models beat near sharp ones.
    double* const collapse_mean = ws_.scratch.data() + 8 * d_;
    double* const collapse_cov = collapse_mean + d_;
    for (std::size_t i = 0; i < l; ++i) ws_.parts[i] = {w_[i], mean(i), cov(i)};
    stats::moment_match_rows({ws_.parts.data(), l_}, collapse_mean,
                             collapse_cov, ws_.scratch.data(), d_);
    stats::symmetrize_checked(collapse_cov, d_);
    double trace = 0.0;
    for (std::size_t i = 0; i < d_; ++i) trace += collapse_cov[i * d_ + i];
    floor_ = std::max(1e-2 * (trace / static_cast<double>(d_)), 1e-12);
  }

  /// Deterministic seeds for restart 0: start from the heaviest input,
  /// then repeatedly add the input whose mean is farthest from every
  /// chosen seed (maximin), ties going to the heavier input. Weight-greedy
  /// seeding alone can drop every seed into one cluster.
  void maximin_seeds(std::size_t k) {
    std::vector<std::size_t>& chosen = ws_.seeds;
    std::size_t heaviest = 0;
    for (std::size_t i = 1; i < l_; ++i) {
      if (w_[i] > w_[heaviest]) heaviest = i;
    }
    chosen.assign(1, heaviest);
    while (chosen.size() < std::min(k, l_)) {
      std::size_t best = l_;
      double best_dist = -1.0;
      for (std::size_t i = 0; i < l_; ++i) {
        double nearest = std::numeric_limits<double>::infinity();
        for (const std::size_t c : chosen) {
          if (c == i) {
            nearest = 0.0;
            break;
          }
          nearest = std::min(
              nearest, linalg::kernels::distance2<D>(mean(i), mean(c), d_));
        }
        if (nearest > best_dist ||
            (nearest == best_dist && best < l_ && w_[i] > w_[best])) {
          best_dist = nearest;
          best = i;
        }
      }
      DDC_ASSERT(best < l_);
      chosen.push_back(best);
    }
  }

  /// Later restarts' seeds: weighted sampling without replacement.
  void random_seeds(std::size_t k, stats::Rng& rng) {
    std::vector<double>& weights = ws_.draw_weights;
    weights.assign(w_, w_ + l_);
    ws_.seeds.clear();
    for (std::size_t draw = 0; draw < k; ++draw) {
      const std::size_t pick = rng.discrete(weights);
      ws_.seeds.push_back(pick);
      weights[pick] = 0.0;
      if (std::accumulate(weights.begin(), weights.end(), 0.0) <= 0.0) break;
    }
  }

  /// One EM optimization from ws.seeds. Leaves the hard assignment in
  /// ws.assignment and returns the model size, iterations and objective.
  RowsReduction run(const ReductionOptions& options) {
    // Initial model: the seeds, priors floored at the uniform share so a
    // light seed is not strangled in the first E step.
    std::size_t m = ws_.seeds.size();
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t s = ws_.seeds[j];
      ws_.model_weights[j] =
          std::max(w_[s], total_ / static_cast<double>(l_));
      std::copy_n(mean(s), d_, model_mean(j));
      std::copy_n(cov(s), dd_, model_cov(j));
    }
    RowsReduction run;
    double prev_objective = -std::numeric_limits<double>::infinity();
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
      run.iterations = iter + 1;

      // E step: rᵢⱼ ∝ πⱼ exp(E_{Nᵢ}[log Nⱼ]) with the log-sum-exp trick,
      // accumulating the surrogate objective.
      score(m);
      double objective = 0.0;
      for (std::size_t i = 0; i < l_; ++i) {
        double* const r = ws_.resp.data() + i * m;  // log scores, then rᵢ
        double max_log = -std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < m; ++j) {
          r[j] = ws_.log_priors[j] + ws_.scores[j * l_ + i];
          max_log = std::max(max_log, r[j]);
        }
        double denom = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          r[j] = std::exp(r[j] - max_log);
          denom += r[j];
        }
        for (std::size_t j = 0; j < m; ++j) r[j] /= denom;
        objective += w_[i] * (max_log + std::log(denom));
      }
      objective /= total_;
      run.objective = objective;

      // M step: moment-match each model component to its responsibility-
      // weighted inputs; components left without mass are dropped.
      std::size_t next = 0;
      for (std::size_t j = 0; j < m; ++j) {
        std::size_t parts = 0;
        double mass = 0.0;
        for (std::size_t i = 0; i < l_; ++i) {
          const double w = w_[i] * ws_.resp[i * m + j];
          if (w <= 0.0) continue;
          ws_.parts[parts++] = {w, mean(i), cov(i)};
          mass += w;
        }
        if (parts == 0) continue;
        stats::moment_match_rows({ws_.parts.data(), parts}, model_mean(next),
                                 model_cov(next), ws_.scratch.data(), d_);
        stats::symmetrize_checked(model_cov(next), d_);
        ws_.model_weights[next++] = mass;
      }
      DDC_ASSERT(next > 0);
      m = next;

      if (std::isfinite(prev_objective) &&
          objective - prev_objective < options.tol) {
        break;
      }
      prev_objective = objective;
    }

    // Hard assignment against the final model, with the E step's floored
    // scoring.
    score(m);
    std::fill_n(ws_.assignment.data(), l_, std::size_t{0});
    for (std::size_t i = 0; i < l_; ++i) {
      double best = -std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < m; ++j) {
        const double s = ws_.log_priors[j] + ws_.scores[j * l_ + i];
        if (s > best) {
          best = s;
          ws_.assignment[i] = j;
        }
      }
    }
    run.groups = m;
    return run;
  }

 private:
  const double* mean(std::size_t i) const {
    return ws_.means.data() + i * d_;
  }
  const double* cov(std::size_t i) const { return ws_.covs.data() + i * dd_; }
  double* model_mean(std::size_t j) { return ws_.model_means.data() + j * d_; }
  double* model_cov(std::size_t j) { return ws_.model_covs.data() + j * dd_; }

  /// regularized_cholesky's tries (the shared kernel) into `l`. Throws
  /// NumericalError when all fail.
  void factor(const double* a, double* l) {
    double* const jittered = ws_.scratch.data() + 8 * d_ + dd_;
    if (!linalg::kernels::regularized_cholesky_factor<D>(a, l, jittered,
                                                         d_)) {
      linalg::throw_jitter_exhausted();
    }
  }

  /// Fills ws.scores (m × l) and ws.log_priors: each component's floored
  /// covariance is factorized once, then one kernel pass scores all inputs.
  void score(std::size_t m) {
    double model_total = 0.0;
    for (std::size_t j = 0; j < m; ++j) model_total += ws_.model_weights[j];
    double* const floored = ws_.scratch.data() + 8 * d_;
    double* const l = floored + 2 * dd_;
    double* const inv = l + dd_;
    const linalg::simd::ScoreBatchFn kernel =
        linalg::simd::batch_score_kernel();
    for (std::size_t j = 0; j < m; ++j) {
      std::copy_n(model_cov(j), dd_, floored);
      for (std::size_t i = 0; i < d_; ++i) floored[i * d_ + i] += floor_;
      stats::symmetrize_checked(floored, d_);
      factor(floored, l);
      linalg::kernels::inverse_from_factor<D>(l, inv, ws_.scratch.data(), d_);
      const double base =
          static_cast<double>(d_) * std::log(2.0 * std::numbers::pi) +
          linalg::kernels::log_det_from_factor<D>(l, d_);
      ws_.log_priors[j] = std::log(ws_.model_weights[j] / model_total);
      kernel({d_, model_mean(j), l, inv, base}, ws_.means.data(),
             ws_.covs.data(), l_, ws_.scores.data() + j * l_,
             ws_.scratch.data());
    }
  }

  EmWorkspace& ws_;
  const double* w_;
  std::size_t l_;
  std::size_t d_;
  std::size_t dd_;
  double total_ = 0.0;  // Σ weights in input order
  double floor_ = 0.0;
};

/// Shared scaffolding for the greedy pairwise reducers: repeatedly merge
/// the best pair according to `cost` until at most k groups remain, via
/// the cached-distance agglomeration core (O(m²) cost evaluations; see
/// common/agglomerate.hpp for the bit-identity argument).
template <typename CostFn>
ReductionResult reduce_greedy(const GaussianMixture& input, std::size_t k,
                              CostFn cost) {
  DDC_EXPECTS(k >= 1);
  if (input.size() <= k) return identity_result(input);

  // Working components, slot-stable: merges fold into the lower slot.
  std::vector<WeightedGaussian> current;
  current.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) current.push_back(input[i]);

  ReductionResult out;
  common::AgglomerationWorkspace ws;
  ws.groups.resize(common::agglomerate_to_k(
      input.size(), k, ws,
      [&](std::size_t a, std::size_t b) {
        return cost(current[a], current[b]);
      },
      [&](std::size_t a, std::size_t b) {
        current[a] = {current[a].weight + current[b].weight,
                      stats::moment_match({current[a], current[b]})};
      }));
  out.groups = std::move(ws.groups);
  // Each surviving group's first entry is the slot its merges folded into.
  for (const auto& g : out.groups) out.mixture.add(current[g.front()]);
  out.objective = std::numeric_limits<double>::quiet_NaN();
  return out;
}

}  // namespace

// ddcverify: hotpath
RowsReduction reduce_em_rows(const double* rows, const double* weights,
                             std::size_t l, std::size_t d, std::size_t k,
                             EmWorkspace& ws, core::Grouping& groups,
                             stats::Rng* rng, const ReductionOptions& options) {
  DDC_EXPECTS(k >= 1);
  DDC_EXPECTS(d >= 1);
  DDC_EXPECTS(options.restarts >= 1);
  DDC_EXPECTS(options.restarts == 1 || rng != nullptr);
  const std::size_t sd = d + d * d;
  ws.means.resize(l * d);
  ws.covs.resize(l * d * d);
  ws.parts.resize(l);
  ws.scratch.resize(8 * d + 4 * d * d);
  for (std::size_t i = 0; i < l; ++i) {
    DDC_EXPECTS(weights[i] > 0.0);
    double* const cov = ws.covs.data() + i * d * d;
    std::copy_n(rows + i * sd, d, ws.means.data() + i * d);
    std::copy_n(rows + i * sd + d, d * d, cov);
    stats::symmetrize_checked(cov, d);
  }
  // Every entry can take all l inputs, so neither the grouping below nor
  // a caller's re-homing reallocates once warm.
  const std::size_t entries = std::max(l, k);
  if (groups.size() < entries) groups.resize(entries);
  for (std::size_t g = 0; g < entries; ++g) groups[g].reserve(l);
  if (l <= k) {
    for (std::size_t i = 0; i < l; ++i) groups[i].assign(1, i);
    return {l, 0, std::numeric_limits<double>::quiet_NaN()};
  }

  RowsReduction best;
  linalg::kernels::dispatch_dim(d, [&](auto fd) {
    PackedEm<fd()> em(ws, weights, l, d, k);
    for (std::size_t r = 0; r < options.restarts; ++r) {
      r == 0 ? em.maximin_seeds(k) : em.random_seeds(k, *rng);
      const RowsReduction run = em.run(options);
      if (r == 0 || run.objective > best.objective) {
        best = run;
        std::swap(ws.assignment, ws.best_assignment);
      }
    }
  });

  // Group by the hard assignment in model order, dropping empty groups:
  // EM decides how many of the k collections it uses (Section 4.1).
  for (std::size_t g = 0; g < best.groups; ++g) groups[g].clear();
  for (std::size_t i = 0; i < l; ++i) {
    groups[ws.best_assignment[i]].push_back(i);
  }
  std::size_t count = 0;
  for (std::size_t g = 0; g < best.groups; ++g) {
    if (groups[g].empty()) continue;
    if (g != count) std::swap(groups[count], groups[g]);
    ++count;
  }
  DDC_ENSURES(count <= k);
  best.groups = count;
  return best;
}

ReductionResult reduce_em(const GaussianMixture& input, std::size_t k,
                          stats::Rng& rng, const ReductionOptions& options) {
  DDC_EXPECTS(k >= 1);
  DDC_EXPECTS(options.restarts >= 1);
  if (input.size() <= k) return identity_result(input);
  const std::size_t l = input.size();
  const std::size_t d = input.dim();
  const std::size_t sd = d + d * d;
  std::vector<double> rows(l * sd);
  std::vector<double> weights(l);
  for (std::size_t i = 0; i < l; ++i) {
    const Gaussian& g = input[i].gaussian;
    std::copy_n(g.mean().data().data(), d, rows.data() + i * sd);
    std::copy_n(g.cov().data().data(), d * d, rows.data() + i * sd + d);
    weights[i] = input[i].weight;
  }
  EmWorkspace ws;
  ReductionResult out;
  const RowsReduction r = reduce_em_rows(rows.data(), weights.data(), l, d, k,
                                         ws, out.groups, &rng, options);
  out.groups.resize(r.groups);
  for (const auto& group : out.groups) {
    std::vector<WeightedGaussian> parts;
    double weight = 0.0;
    for (const std::size_t i : group) {
      parts.push_back(input[i]);
      weight += input[i].weight;
    }
    out.mixture.add(parts.size() == 1
                        ? parts.front()
                        : WeightedGaussian{weight, stats::moment_match(parts)});
  }
  out.iterations = r.iterations;
  out.objective = r.objective;
  return out;
}

ReductionResult reduce_runnalls(const GaussianMixture& input, std::size_t k) {
  const double total = input.total_weight();
  return reduce_greedy(
      input, k, [total](const WeightedGaussian& a, const WeightedGaussian& b) {
        const double wa = a.weight / total;
        const double wb = b.weight / total;
        const Gaussian merged = stats::moment_match({a, b});
        const double ld_m =
            linalg::regularized_cholesky(merged.cov()).log_det();
        const double ld_a = linalg::regularized_cholesky(a.gaussian.cov()).log_det();
        const double ld_b = linalg::regularized_cholesky(b.gaussian.cov()).log_det();
        return 0.5 * ((wa + wb) * ld_m - wa * ld_a - wb * ld_b);
      });
}

ReductionResult reduce_nearest_means(const GaussianMixture& input,
                                     std::size_t k) {
  return reduce_greedy(input, k,
                       [](const WeightedGaussian& a, const WeightedGaussian& b) {
                         return linalg::distance2(a.gaussian.mean(),
                                                  b.gaussian.mean());
                       });
}

}  // namespace ddc::em
