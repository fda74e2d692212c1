#include "core/baum_welch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace veritas::core {

namespace {

/// Expected sufficient statistics of one session, accumulated on its
/// E-step lane and merged into the global counts in session order.
struct SessionStats {
  math::Matrix transition_counts;  ///< k×k expected Δ=1 pair counts
  std::vector<double> initial;     ///< gamma(0, ·)
  double residual_sq = 0.0;
  double residual_weight = 0.0;
  double log_likelihood = 0.0;
};

/// Accumulates the session's statistics xi-free: the Δ=1 pair posterior
/// entries Γ_n(i,j) = α_n(i) A(i,j) ẽ_{n+1}(j) β_{n+1}(j) / Z_n are
/// formed term by term from the scratch arenas — the same values (same
/// operation order) the seed read out of materialized xi matrices.
void accumulate_session(
    const Ehmm& model, std::span<const ChunkObservation> obs,
    const Ehmm::ForwardBackwardResult& fb, const Ehmm::Scratch& scratch,
    std::span<const double* const> plain_rows, const BaumWelchConfig& config,
    SessionStats& stats) {
  const std::size_t k = model.space().size();
  stats.transition_counts.resize(k, k, 0.0);
  stats.initial.assign(k, 0.0);
  stats.residual_sq = 0.0;
  stats.residual_weight = 0.0;
  stats.log_likelihood = fb.log_likelihood;

  for (std::size_t i = 0; i < k; ++i) {
    stats.initial[i] += fb.gamma(0, i);
  }

  const math::Matrix& a_one = model.transition().power(1);
  for (std::size_t n = 0; n + 1 < obs.size(); ++n) {
    if (scratch.deltas[n + 1] != 1) continue;  // see header: Δ=1 pairs only
    const double total = fb.pair_totals[n];
    if (total > 0.0) {
      const double* alpha_n = scratch.alpha.row_data(n);
      const double* em_next = scratch.em.row_data(n + 1);
      const double* beta_next = scratch.beta.row_data(n + 1);
      for (std::size_t i = 0; i < k; ++i) {
        const double alpha_i = alpha_n[i];
        const double* a_row = a_one.row_data(i);
        double* counts_row = stats.transition_counts.row_data(i);
        for (std::size_t j = 0; j < k; ++j) {
          counts_row[j] +=
              alpha_i * a_row[j] * em_next[j] * beta_next[j] / total;
        }
      }
    } else {
      // Degenerate pair: independent marginals (the seed's fallback).
      for (std::size_t i = 0; i < k; ++i) {
        double* counts_row = stats.transition_counts.row_data(i);
        for (std::size_t j = 0; j < k; ++j) {
          counts_row[j] += fb.gamma(n, i) * fb.gamma(n + 1, j);
        }
      }
    }
  }

  if (config.update_sigma) {
    for (std::size_t n = 0; n < obs.size(); ++n) {
      // σ is fitted to the un-averaged f(value(i)) row; it differs from
      // the mean row only when the estimator span-averages.
      const double* mean_row = plain_rows[n];
      for (std::size_t i = 0; i < k; ++i) {
        const double r = obs[n].throughput_mbps - mean_row[i];
        stats.residual_sq += fb.gamma(n, i) * r * r;
        stats.residual_weight += fb.gamma(n, i);
      }
    }
  }
}

}  // namespace

BaumWelchResult baum_welch_train(
    const Ehmm& initial,
    std::span<const std::vector<ChunkObservation>> sessions,
    const BaumWelchConfig& config) {
  VERITAS_EXPECTS(!sessions.empty());
  for (const auto& s : sessions) VERITAS_EXPECTS(!s.empty());
  VERITAS_EXPECTS(config.max_iterations >= 1);

  const std::size_t k = initial.space().size();
  const std::size_t n_sessions = sessions.size();
  math::Matrix a = initial.transition().matrix();
  std::vector<double> u(initial.transition().initial().begin(),
                        initial.transition().initial().end());
  double sigma = initial.emission().sigma_mbps();

  BaumWelchResult result{TransitionModel(a, u), sigma, {}, 0};

  // E-step lanes: `threads` total, pool workers plus the calling thread,
  // each with a private scratch arena. Session -> lane assignment is
  // dynamic; determinism comes from the ordered reduction below.
  std::size_t threads = config.num_threads == 0
                            ? util::ThreadPool::hardware_threads()
                            : config.num_threads;
  threads = std::clamp<std::size_t>(threads, 1, n_sessions);
  util::ThreadPool pool(threads - 1);
  std::vector<Ehmm::Scratch> scratch(pool.size() + 1);
  std::vector<SessionStats> stats(n_sessions);

  // One shared (W, S) estimator memo for the whole training run: rows
  // survive across E-step lanes and across EM iterations. The means are
  // invariant in (A, u, σ), so for the plain estimators every tuple is
  // computed exactly once per run; under kMultiWindow with
  // update_transition the candidate-table id moves with A each
  // iteration, making stale span-averaged rows unreachable by
  // construction. Sized from a byte budget so large state spaces don't
  // balloon resident memory.
  const bool multi_window = initial.emission().estimator() ==
                            EmissionModel::Estimator::kMultiWindow;
  EstimatorCache::Config cache_config;
  cache_config.capacity = EstimatorCache::entries_for_bytes(
      config.estimator_cache_bytes, initial.space().size(), multi_window);
  auto estimator_cache = std::make_shared<EstimatorCache>(cache_config);
  for (Ehmm::Scratch& lane : scratch) {
    lane.estimator_cache = estimator_cache;
  }

  // The emission means f(candidate, W, S) do not depend on (A, u, σ),
  // so each session's rows are filled once and stay pinned (refs: one
  // pin per cache slab the rows live in) across iterations — except
  // under kMultiWindow with update_transition, where the span-averaged
  // candidates move with A and the rows are refilled under each
  // iteration's table id.
  const bool refill_rows = multi_window && config.update_transition;
  std::vector<std::vector<const double*>> rows(n_sessions);
  std::vector<std::vector<const double*>> plain_rows(n_sessions);
  std::vector<EstimatorCache::Pins> refs(n_sessions);

  double previous_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    const Ehmm model(initial.space(), TransitionModel(a, u),
                     EmissionModel(sigma, initial.emission().tcp_config(),
                                   initial.emission().estimator()),
                     initial.delta_s());

    pool.parallel_for(n_sessions, [&](std::size_t worker, std::size_t idx) {
      const std::vector<ChunkObservation>& obs = sessions[idx];
      Ehmm::Scratch& lane = scratch[worker];
      if (iter == 0 || refill_rows) {
        // Rows are bit-identical whichever lane computed them first, so
        // the thread-count determinism argument is untouched.
        model.emission_mean_rows_into(obs, *lane.estimator_cache,
                                      lane.estimator_l1, rows[idx],
                                      refs[idx], &plain_rows[idx]);
      }
      const Ehmm::ForwardBackwardResult fb =
          model.forward_backward_from_rows(obs, rows[idx], lane);
      accumulate_session(model, obs, fb, lane, plain_rows[idx], config,
                         stats[idx]);
    });

    // Ordered reduction: session-index order, independent of which lane
    // produced each entry, so every thread count yields the same bits.
    math::Matrix transition_counts(k, k, config.smoothing);
    std::vector<double> initial_counts(k, config.smoothing);
    double residual_sq = 0.0;
    double residual_weight = 0.0;
    double total_ll = 0.0;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      const SessionStats& st = stats[s];
      total_ll += st.log_likelihood;
      for (std::size_t i = 0; i < k; ++i) {
        initial_counts[i] += st.initial[i];
        const double* counts_row = st.transition_counts.row_data(i);
        double* global_row = transition_counts.row_data(i);
        for (std::size_t j = 0; j < k; ++j) global_row[j] += counts_row[j];
      }
      residual_sq += st.residual_sq;
      residual_weight += st.residual_weight;
    }

    result.log_likelihoods.push_back(total_ll);
    result.iterations = iter + 1;

    // M-step.
    if (config.update_transition) {
      for (std::size_t i = 0; i < k; ++i) {
        double row_sum = 0.0;
        for (std::size_t j = 0; j < k; ++j) row_sum += transition_counts(i, j);
        for (std::size_t j = 0; j < k; ++j) {
          a(i, j) = transition_counts(i, j) / row_sum;
        }
      }
    }
    if (config.update_initial) {
      double sum = 0.0;
      for (const double c : initial_counts) sum += c;
      for (std::size_t i = 0; i < k; ++i) u[i] = initial_counts[i] / sum;
    }
    if (config.update_sigma && residual_weight > 0.0) {
      sigma = std::max(config.min_sigma_mbps,
                       std::sqrt(residual_sq / residual_weight));
    }

    result.transition = TransitionModel(a, u);
    result.sigma_mbps = sigma;

    if (std::isfinite(previous_ll) &&
        std::abs(total_ll - previous_ll) <=
            config.tolerance * (std::abs(previous_ll) + 1.0)) {
      break;
    }
    previous_ll = total_ll;
  }
  return result;
}

}  // namespace veritas::core
