// Baum-Welch (EM) training of the EHMM hyperparameters from recorded
// sessions — an extension beyond the paper's fixed tridiagonal prior
// (the paper fixes A; its forward-backward variant is Algorithm 2).
//
// Embedded-chain caveat: transitions between chunks are A^Δn. The M-step
// accumulates expected transition counts only over consecutive-chunk
// pairs with Δ = 1 (exact sufficient statistics); Δ = 0 pairs carry no
// information about A and Δ > 1 pairs are skipped (documented
// approximation — exact EM would require conditional path expectations
// through A^Δ). With all Δ <= 1 this is exact EM and the likelihood is
// non-decreasing per iteration.
//
// The E-step is xi-free and parallel: each session's expected counts
// are accumulated straight from its alpha/beta/emission rows (no pair
// matrices materialized) on a util::ThreadPool lane, and the per-session
// statistics are reduced in session-index order — so the trained
// parameters are bit-identical for every thread count. Emission means
// (the TCP estimator f) are invariant in (A, u, σ): each session pins
// its estimator-cache rows on the first iteration and reuses them in
// every later one, except under kMultiWindow with update_transition,
// where the span-averaged means move with A and are refilled.
#pragma once

#include <span>
#include <vector>

#include "core/ehmm.hpp"

namespace veritas::core {

struct BaumWelchConfig {
  std::size_t max_iterations = 30;
  double tolerance = 1e-4;        ///< relative log-likelihood improvement
  bool update_transition = true;
  bool update_initial = true;
  bool update_sigma = false;      ///< re-estimate emission noise σ
  double smoothing = 1e-6;        ///< additive smoothing of counts
  double min_sigma_mbps = 0.05;   ///< floor when update_sigma is on
  /// E-step lanes (sessions fan out across a util::ThreadPool); 0 means
  /// the hardware thread count. Any value yields bit-identical results:
  /// per-session statistics are merged in session order.
  std::size_t num_threads = 0;
  /// Byte budget of the run-wide (W, S) estimator memo shared across
  /// E-step lanes and EM iterations (converted to entries from the
  /// state-space size; see core/estimator_cache.hpp).
  std::size_t estimator_cache_bytes = EstimatorCache::kDefaultByteBudget;
};

struct BaumWelchResult {
  TransitionModel transition;           ///< trained A and u
  double sigma_mbps = 0.0;              ///< trained (or original) σ
  std::vector<double> log_likelihoods;  ///< total LL per iteration
  std::size_t iterations = 0;
};

/// Trains from one or more sessions' observations, starting from the
/// parameters of `initial`. Requires at least one non-empty session.
BaumWelchResult baum_welch_train(
    const Ehmm& initial,
    std::span<const std::vector<ChunkObservation>> sessions,
    const BaumWelchConfig& config = {});

}  // namespace veritas::core
