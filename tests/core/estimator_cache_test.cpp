// The cross-session (W, S) estimator cache: memo hit-vs-miss
// bit-identity, candidate-table (config/epoch) invalidation, capacity
// flushes, slab allocation counts, and the engine / Baum-Welch plumbing
// that shares one cache across sessions, lanes and EM iterations.
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/baum_welch.hpp"
#include "core/estimator_cache.hpp"
#include "core/inference_engine.hpp"
#include "core/test_helpers.hpp"
#include "trace/trace_generator.hpp"

namespace {

using namespace veritas;
using core::ChunkObservation;
using core::Ehmm;
using core::EstimatorCache;

std::vector<ChunkObservation> session_obs(std::uint64_t seed,
                                          std::size_t chunks = 40) {
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, seed)[0];
  return core::observations_from_log(
      core::testing::deployed_log(gtbw, chunks));
}

/// The session's emission-mean rows served through `cache`, copied into
/// a dense N x K matrix; `plain` (when non-null) receives the un-averaged
/// rows the σ re-estimate reads. Each call syncs a fresh lane handle, so
/// every row is a probe of `cache`.
math::Matrix mean_matrix(const Ehmm& ehmm,
                         const std::vector<ChunkObservation>& obs,
                         EstimatorCache& cache, math::Matrix* plain = nullptr) {
  EstimatorCache::L1 l1;
  std::vector<const double*> rows;
  std::vector<const double*> plain_rows;
  EstimatorCache::Pins refs;
  ehmm.emission_mean_rows_into(obs, cache, l1, rows, refs, &plain_rows);
  // One pin per slab the rows live in, never more than one per row.
  EXPECT_GE(refs.size(), 1u);
  EXPECT_LE(refs.size(), obs.size());
  const std::size_t k = ehmm.space().size();
  math::Matrix means(obs.size(), k, 0.0);
  if (plain != nullptr) *plain = math::Matrix(obs.size(), k, 0.0);
  for (std::size_t n = 0; n < obs.size(); ++n) {
    for (std::size_t i = 0; i < k; ++i) {
      means(n, i) = rows[n][i];
      if (plain != nullptr) (*plain)(n, i) = plain_rows[n][i];
    }
  }
  return means;
}

void expect_matrix_eq(const math::Matrix& a, const math::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t n = 0; n < a.rows(); ++n) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      EXPECT_EQ(a(n, i), b(n, i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(EstimatorCache, HitIsBitIdenticalToMiss) {
  const Ehmm ehmm = core::testing::small_ehmm();
  const auto obs = session_obs(7);

  EstimatorCache cache;
  const math::Matrix cold = mean_matrix(ehmm, obs, cache);
  const EstimatorCache::Stats after_cold = cache.stats();
  EXPECT_GT(after_cold.insertions, 0u);

  const math::Matrix warm = mean_matrix(ehmm, obs, cache);
  const EstimatorCache::Stats after_warm = cache.stats();
  // Every row of the second pass hits; nothing misses, nothing is
  // inserted.
  EXPECT_EQ(after_warm.hits - after_cold.hits, obs.size());
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(after_warm.insertions, after_cold.insertions);
  expect_matrix_eq(cold, warm);
}

TEST(EstimatorCache, SharedCacheIsolatesModelsByTableId) {
  // Three models over one cache: a reference, a different TcpConfig and
  // a different candidate grid. Each must read only its own rows.
  const auto obs = session_obs(11);
  core::StateSpace space(1.0, 3.0);
  net::TcpConfig bbr_config;
  bbr_config.congestion_control = net::CongestionControl::kBbrLike;
  const Ehmm cubic = core::testing::small_ehmm();
  const Ehmm bbr(core::StateSpace(1.0, 3.0),
                 core::TransitionModel::tridiagonal(4),
                 core::EmissionModel(0.5, bbr_config), 5.0);
  const Ehmm wide(core::StateSpace(2.0, 6.0),
                  core::TransitionModel::tridiagonal(4),
                  core::EmissionModel(0.5), 5.0);
  EXPECT_NE(cubic.emission_table_id(), bbr.emission_table_id());
  EXPECT_NE(cubic.emission_table_id(), wide.emission_table_id());

  auto shared = std::make_shared<EstimatorCache>();
  // Twice: the second round runs with the shared cache fully warm with
  // all three models' rows interleaved.
  for (int round = 0; round < 2; ++round) {
    for (const Ehmm* model : {&cubic, &bbr, &wide}) {
      EstimatorCache isolated;
      expect_matrix_eq(mean_matrix(*model, obs, isolated),
                       mean_matrix(*model, obs, *shared));
    }
  }
}

TEST(EstimatorCache, MultiWindowPlainMeansSurviveTheCache) {
  core::StateSpace space(1.0, 3.0);
  const Ehmm multi(core::StateSpace(1.0, 3.0),
                   core::TransitionModel::tridiagonal(4),
                   core::EmissionModel(0.5, net::TcpConfig{},
                                       core::EmissionModel::Estimator::
                                           kMultiWindow),
                   5.0);
  // Long chunks (4 MB ≈ 16-32 s at these candidate rates) so the span
  // estimate exceeds one δ-window and the span-averaged candidate
  // actually replaces the plain one.
  std::vector<ChunkObservation> obs;
  for (int n = 0; n < 6; ++n) {
    obs.push_back(core::testing::warm_observation(5.0 * n, 2.0, 4e6));
  }

  EstimatorCache cache;
  math::Matrix plain_cold, plain_warm;
  const math::Matrix means_cold = mean_matrix(multi, obs, cache, &plain_cold);
  const math::Matrix means_warm = mean_matrix(multi, obs, cache, &plain_warm);
  expect_matrix_eq(means_cold, means_warm);
  expect_matrix_eq(plain_cold, plain_warm);

  // The span-averaged means and the plain means genuinely differ for
  // long chunks, so the entry really carries two rows.
  bool any_difference = false;
  for (std::size_t n = 0; n < means_cold.rows() && !any_difference; ++n) {
    for (std::size_t i = 0; i < means_cold.cols(); ++i) {
      if (means_cold(n, i) != plain_cold(n, i)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(EstimatorCache, CapacityFlushKeepsResultsCorrect) {
  EstimatorCache::Config config;
  config.capacity = 8;
  config.shards = 2;
  EstimatorCache tiny(config);
  const Ehmm ehmm = core::testing::small_ehmm();
  const auto obs = session_obs(19, 60);

  EstimatorCache big;
  expect_matrix_eq(mean_matrix(ehmm, obs, tiny), mean_matrix(ehmm, obs, big));
  const EstimatorCache::Stats stats = tiny.stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_GT(stats.flushes, 0u);
}

TEST(EstimatorCache, ColdMissesAllocatePerSlabNotPerRow) {
  // A cold 300-row session at the engine's default grid: rows land in
  // block-allocated slabs, so the allocations are bounded by the slabs
  // the misses fill (rounded up per shard) plus one index table per
  // shard, not by the row count.
  const core::InferenceEngine engine{core::VeritasConfig{}};
  const Ehmm& ehmm = engine.ehmm();
  const auto obs = session_obs(31, 300);
  ASSERT_EQ(obs.size(), 300u);

  const EstimatorCache::Config config;
  EstimatorCache cache(config);
  EstimatorCache::L1 l1;
  std::vector<const double*> rows;
  EstimatorCache::Pins refs;
  ehmm.emission_mean_rows_into(obs, cache, l1, rows, refs);

  const EstimatorCache::Stats stats = cache.stats();
  ASSERT_GT(stats.misses, 0u);
  EXPECT_EQ(stats.hits + stats.misses, obs.size());
  const std::size_t per_slab =
      EstimatorCache::rows_per_slab(ehmm.space().size(), false);
  ASSERT_GT(per_slab, 1u);
  const std::size_t slab_bound =
      (stats.misses + per_slab - 1) / per_slab + config.shards;
  EXPECT_LE(stats.slabs, slab_bound);
  EXPECT_LE(stats.index_allocations, config.shards);
  EXPECT_LT(stats.slabs + stats.index_allocations, stats.misses);
  // The session pins each slab it read once.
  EXPECT_LE(refs.size(), stats.slabs);
}

TEST(EstimatorCache, EngineSharesOneCacheAcrossSessionsAndScratches) {
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 23)[0];
  const sim::SessionLog log = core::testing::deployed_log(gtbw, 40);

  core::VeritasConfig with_cache;
  core::VeritasConfig no_cache;
  no_cache.estimator_cache_bytes = 0;
  const core::InferenceEngine cached(with_cache);
  const core::InferenceEngine uncached(no_cache);
  ASSERT_NE(cached.estimator_cache(), nullptr);
  EXPECT_EQ(uncached.estimator_cache(), nullptr);

  Ehmm::Scratch a, b;
  const core::VeritasResult first = cached.infer(log, a);
  const std::uint64_t hits_after_first =
      cached.estimator_cache()->stats().hits;
  // A different scratch still consults the engine cache: the second
  // inference's emission phase is all hits.
  const core::VeritasResult second = cached.infer(log, b);
  EXPECT_GT(cached.estimator_cache()->stats().hits, hits_after_first);
  EXPECT_EQ(a.estimator_cache.get(), cached.estimator_cache().get());
  EXPECT_EQ(b.estimator_cache.get(), cached.estimator_cache().get());

  // Cached, cache-disabled and repeat runs all agree bitwise.
  Ehmm::Scratch c;
  const core::VeritasResult reference = uncached.infer(log, c);
  EXPECT_EQ(first.log_likelihood, reference.log_likelihood);
  EXPECT_EQ(second.log_likelihood, reference.log_likelihood);
  ASSERT_EQ(first.map_states_mbps.size(), reference.map_states_mbps.size());
  for (std::size_t i = 0; i < reference.map_states_mbps.size(); ++i) {
    EXPECT_EQ(first.map_states_mbps[i], reference.map_states_mbps[i]);
    EXPECT_EQ(second.map_states_mbps[i], reference.map_states_mbps[i]);
  }
  expect_matrix_eq(first.posterior_marginals, reference.posterior_marginals);
}

TEST(EstimatorCache, DisabledEngineDetachesAPreviousEnginesCache) {
  // A worker-lane scratch hops between shards: after serving an engine
  // with a cache, a cache-disabled engine must not silently keep
  // computing through it (foreign budget consumption, a removed shard's
  // memory kept pinned). The attach is unconditional — null detaches.
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 29)[0];
  const sim::SessionLog log = core::testing::deployed_log(gtbw, 30);

  core::VeritasConfig cached;
  core::VeritasConfig off;
  off.estimator_cache_bytes = 0;
  const core::InferenceEngine first(cached);
  const core::InferenceEngine second(off);

  Ehmm::Scratch lane;
  (void)first.infer(log, lane);
  ASSERT_EQ(lane.estimator_cache.get(), first.estimator_cache().get());
  const EstimatorCache::Stats before = first.estimator_cache()->stats();

  const core::VeritasResult through_lane = second.infer(log, lane);
  EXPECT_NE(lane.estimator_cache.get(), first.estimator_cache().get());
  // The first engine's cache saw none of the second engine's probes.
  const EstimatorCache::Stats after = first.estimator_cache()->stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);

  Ehmm::Scratch fresh;
  const core::VeritasResult reference = second.infer(log, fresh);
  EXPECT_EQ(through_lane.log_likelihood, reference.log_likelihood);
  expect_matrix_eq(through_lane.posterior_marginals,
                   reference.posterior_marginals);
}

TEST(EstimatorCache, BaumWelchSharedCacheMatchesPerLaneTraining) {
  // Training with the run-wide shared cache (the production path) must
  // be bit-identical at every thread count — the cache only changes
  // when f runs, never what it returns.
  std::vector<std::vector<ChunkObservation>> sessions;
  for (std::uint64_t s = 0; s < 4; ++s) {
    sessions.push_back(session_obs(100 + s, 24));
  }
  const Ehmm initial = core::testing::small_ehmm();
  core::BaumWelchConfig config;
  config.max_iterations = 3;
  config.update_sigma = true;

  config.num_threads = 1;
  const core::BaumWelchResult serial =
      core::baum_welch_train(initial, sessions, config);
  config.num_threads = 4;
  const core::BaumWelchResult parallel =
      core::baum_welch_train(initial, sessions, config);

  ASSERT_EQ(serial.log_likelihoods.size(), parallel.log_likelihoods.size());
  for (std::size_t i = 0; i < serial.log_likelihoods.size(); ++i) {
    EXPECT_EQ(serial.log_likelihoods[i], parallel.log_likelihoods[i]);
  }
  EXPECT_EQ(serial.sigma_mbps, parallel.sigma_mbps);
  const math::Matrix& a = serial.transition.matrix();
  const math::Matrix& b = parallel.transition.matrix();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j));
    }
  }
}

}  // namespace
