#include <ddc/em/mixture_reduction.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include <ddc/common/agglomerate.hpp>
#include <ddc/common/assert.hpp>
#include <ddc/linalg/cholesky.hpp>
#include <ddc/stats/gaussian_batch.hpp>

namespace ddc::em {

using linalg::Vector;
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

/// Moment-matched merge of the input components listed in `group`.
WeightedGaussian merge_group(const GaussianMixture& input,
                             const std::vector<std::size_t>& group) {
  DDC_ASSERT(!group.empty());
  std::vector<WeightedGaussian> parts;
  parts.reserve(group.size());
  double weight = 0.0;
  for (const std::size_t i : group) {
    parts.push_back(input[i]);
    weight += input[i].weight;
  }
  if (parts.size() == 1) return parts.front();
  return {weight, stats::moment_match(parts)};
}

/// Deterministic seeds for EM restart 0: start from the heaviest
/// component, then repeatedly add the component whose mean is farthest
/// from every already-chosen seed (maximin / farthest-point traversal).
/// Weight-greedy seeding alone can drop all seeds into one cluster and
/// strand EM in a collapsed local optimum; maximin spreads them.
std::vector<std::size_t> maximin_seeds(const GaussianMixture& input,
                                       std::size_t k) {
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  std::size_t heaviest = 0;
  for (std::size_t i = 1; i < input.size(); ++i) {
    if (input[i].weight > input[heaviest].weight) heaviest = i;
  }
  chosen.push_back(heaviest);
  while (chosen.size() < std::min<std::size_t>(k, input.size())) {
    std::size_t best = input.size();
    double best_dist = -1.0;
    for (std::size_t i = 0; i < input.size(); ++i) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const std::size_t c : chosen) {
        if (c == i) {
          nearest = 0.0;
          break;
        }
        nearest = std::min(nearest,
                           linalg::distance2(input[i].gaussian.mean(),
                                             input[c].gaussian.mean()));
      }
      // Tie-break toward heavier components for determinism with meaning.
      if (nearest > best_dist ||
          (nearest == best_dist && best < input.size() &&
           input[i].weight > input[best].weight)) {
        best_dist = nearest;
        best = i;
      }
    }
    DDC_ASSERT(best < input.size());
    chosen.push_back(best);
  }
  return chosen;
}

std::vector<std::size_t> random_k(const GaussianMixture& input, std::size_t k,
                                  stats::Rng& rng) {
  std::vector<std::size_t> order(input.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Weighted sampling without replacement via repeated discrete draws.
  std::vector<double> weights;
  weights.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) weights.push_back(input[i].weight);
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t draw = 0; draw < k; ++draw) {
    const std::size_t pick = rng.discrete(weights);
    chosen.push_back(pick);
    weights[pick] = 0.0;
    if (std::accumulate(weights.begin(), weights.end(), 0.0) <= 0.0) break;
  }
  return chosen;
}

struct EmRun {
  GaussianMixture model;
  std::vector<std::size_t> assignment;
  /// Per-input log-score toward its assigned component (final E pass).
  std::vector<double> assignment_score;
  double objective = -std::numeric_limits<double>::infinity();
  std::size_t iterations = 0;
};

/// Covariance floor for E-step *scoring* (the stored model is never
/// floored). Without it a point-mass model component repels even its own
/// cluster's broad collections — tr(Σ_model⁻¹ Σ_input) explodes — and EM
/// falls into cross-cluster local optima. The floor blends the average
/// *within-component* variance (the natural local scale) with a small
/// fraction of the overall spread (a fallback when all inputs are point
/// masses), the standard covariance-regularization device in EM practice.
double scoring_floor(const GaussianMixture& input) {
  // The floor must be commensurate with the OVERALL spread, not the
  // within-component scale: scoring a broad input against a (regularized)
  // point-mass model produces tr(Σ_model⁻¹ Σ_input) ≈ Σ_input/floor, and
  // unless the floor is a visible fraction of the spread this term
  // overwhelms the mean-distance term, making far broad models beat near
  // sharp ones — the cross-cluster pathology.
  const double overall =
      linalg::trace(input.collapse().cov()) / static_cast<double>(input.dim());
  return std::max(1e-2 * overall, 1e-12);
}

/// The model component as used for scoring: covariance floored at εI.
Gaussian floored(const Gaussian& g, double eps) {
  linalg::Matrix cov = g.cov();
  for (std::size_t i = 0; i < cov.rows(); ++i) cov(i, i) += eps;
  return Gaussian(g.mean(), std::move(cov));
}

/// One model component prepared for an E step / assignment pass: the
/// floored covariance factorized once (E steps score every input against
/// every model component — factorizing per pair was the dominant cost),
/// plus the component's log-prior, which is likewise input-independent.
struct ScoringComponent {
  stats::ExpectedLogPdfScorer scorer;
  double log_prior;
};

/// Build the per-component scoring invariants for the current model.
/// `out` is a reusable buffer; cleared and refilled.
void build_scoring(const GaussianMixture& model, double floor_eps,
                   std::vector<ScoringComponent>& out) {
  const double model_total = model.total_weight();
  out.clear();
  out.reserve(model.size());
  for (std::size_t j = 0; j < model.size(); ++j) {
    out.push_back(
        {stats::ExpectedLogPdfScorer(floored(model[j].gaussian, floor_eps)),
         std::log(model[j].weight / model_total)});
  }
}

/// One full EM optimization from the given seed components.
EmRun run_em(const GaussianMixture& input, const std::vector<std::size_t>& seeds,
             std::size_t k, const ReductionOptions& options) {
  const std::size_t l = input.size();
  const double total = input.total_weight();
  const double floor_eps = scoring_floor(input);

  // Initial model: the seed components, with priors proportional to the
  // seed weights (floored at the uniform share so a light seed is not
  // strangled in the very first E step).
  std::vector<WeightedGaussian> init;
  init.reserve(seeds.size());
  for (const std::size_t s : seeds) {
    init.push_back({std::max(input[s].weight, total / static_cast<double>(l)),
                    input[s].gaussian});
  }
  EmRun run;
  run.model = GaussianMixture(std::move(init));

  // Scratch reused across iterations: responsibilities, the factorized
  // scoring components, the SoA-packed inputs (constant across
  // iterations — packed once), the m×l score table, and the M-step part
  // list.
  std::vector<std::vector<double>> resp(l);
  std::vector<ScoringComponent> scoring;
  std::vector<double> logs;
  std::vector<WeightedGaussian> parts;
  stats::GaussianBatch batch;
  batch.assign(input);
  std::vector<double> scores;
  double prev_objective = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    run.iterations = iter + 1;
    const std::size_t m = run.model.size();

    // E step: rᵢⱼ ∝ πⱼ exp(E_{Nᵢ}[log Nⱼ]) with the log-sum-exp trick;
    // accumulate the surrogate objective. Model covariances are floored
    // for scoring only, each component is factorized once per iteration
    // (not per pair) via ScoringComponent, and every component scores
    // the whole SoA input batch in one score_batch pass — the E step's
    // only scoring entry point.
    build_scoring(run.model, floor_eps, scoring);
    scores.resize(m * l);
    for (std::size_t j = 0; j < m; ++j) {
      scoring[j].scorer.score_batch(batch, scores.data() + j * l);
    }
    logs.resize(m);
    double objective = 0.0;
    for (std::size_t i = 0; i < l; ++i) {
      double max_log = -std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < m; ++j) {
        logs[j] = scoring[j].log_prior + scores[j * l + i];
        max_log = std::max(max_log, logs[j]);
      }
      resp[i].assign(m, 0.0);
      double denom = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        resp[i][j] = std::exp(logs[j] - max_log);
        denom += resp[i][j];
      }
      for (double& r : resp[i]) r /= denom;
      objective += input[i].weight * (max_log + std::log(denom));
    }
    objective /= total;
    run.objective = objective;

    // M step: moment-match each model component to its responsibility-
    // weighted inputs.
    std::vector<WeightedGaussian> next;
    next.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      parts.clear();
      double mass = 0.0;
      for (std::size_t i = 0; i < l; ++i) {
        const double w = input[i].weight * resp[i][j];
        if (w <= 0.0) continue;
        parts.push_back({w, input[i].gaussian});
        mass += w;
      }
      if (parts.empty()) continue;
      next.push_back({mass, stats::moment_match(parts)});
    }
    DDC_ASSERT(!next.empty());
    run.model = GaussianMixture(std::move(next));

    if (std::isfinite(prev_objective) &&
        objective - prev_objective < options.tol) {
      break;
    }
    prev_objective = objective;
  }

  // Hard assignment by final responsibilities against the final model
  // (same floored scoring as the E step, for consistency).
  const std::size_t m = run.model.size();
  build_scoring(run.model, floor_eps, scoring);
  scores.resize(m * l);
  for (std::size_t j = 0; j < m; ++j) {
    scoring[j].scorer.score_batch(batch, scores.data() + j * l);
  }
  run.assignment.assign(l, 0);
  run.assignment_score.assign(l, 0.0);
  for (std::size_t i = 0; i < l; ++i) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      const double score = scoring[j].log_prior + scores[j * l + i];
      if (score > best) {
        best = score;
        run.assignment[i] = j;
      }
    }
    run.assignment_score[i] = best;
  }
  (void)k;
  return run;
}

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

ReductionResult reduce_em(const GaussianMixture& input, std::size_t k,
                          stats::Rng& rng, const ReductionOptions& options) {
  DDC_EXPECTS(k >= 1);
  DDC_EXPECTS(options.restarts >= 1);
  if (input.size() <= k) return identity_result(input);

  EmRun best;
  bool have_best = false;
  for (std::size_t r = 0; r < options.restarts; ++r) {
    const std::vector<std::size_t> seeds =
        r == 0 ? maximin_seeds(input, k) : random_k(input, k, rng);
    EmRun run = run_em(input, seeds, k, options);
    if (!have_best || run.objective > best.objective) {
      best = std::move(run);
      have_best = true;
    }
  }

  // Group by the hard assignment. EM decides how many of the k available
  // collections it actually uses (adaptive compression, Section 4.1): with
  // l ≤ k the identity path above keeps everything; with l > k the local
  // optimum typically lands on the data's natural component count.
  std::vector<std::vector<std::size_t>> groups(best.model.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    groups[best.assignment[i]].push_back(i);
  }
  std::erase_if(groups, [](const auto& g) { return g.empty(); });

  ReductionResult out;
  for (auto& group : groups) {
    out.mixture.add(merge_group(input, group));
    out.groups.push_back(std::move(group));
  }
  out.iterations = best.iterations;
  out.objective = best.objective;
  DDC_ENSURES(out.mixture.size() <= k);
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
