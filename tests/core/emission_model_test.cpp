#include "core/emission_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/test_helpers.hpp"
#include "math/distributions.hpp"
#include "net/throughput_estimator.hpp"
#include "util/expects.hpp"

namespace veritas::core {
namespace {

using testing::warm_observation;

TEST(Observations, ExtractedFromLog) {
  const auto gtbw = trace::BandwidthTrace::constant(4.0, 600.0, 5.0);
  const sim::SessionLog log = testing::deployed_log(gtbw, 20);
  const auto obs = observations_from_log(log);
  ASSERT_EQ(obs.size(), log.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    EXPECT_DOUBLE_EQ(obs[i].throughput_mbps, log.chunks[i].throughput_mbps());
    EXPECT_DOUBLE_EQ(obs[i].size_bytes, log.chunks[i].size_bytes);
    EXPECT_DOUBLE_EQ(obs[i].start_s, log.chunks[i].start_s);
  }
}

TEST(Observations, RejectEmptyLog) {
  sim::SessionLog log;
  EXPECT_THROW(observations_from_log(log), veritas::ContractViolation);
}

TEST(Observations, RejectNonIncreasingStarts) {
  sim::SessionLog log;
  sim::ChunkLog a;
  a.start_s = 1.0;
  a.end_s = 2.0;
  a.size_bytes = 1000;
  sim::ChunkLog b = a;  // same start
  log.chunks = {a, b};
  EXPECT_THROW(observations_from_log(log), veritas::ContractViolation);
}

TEST(EmissionModel, MeanMatchesEstimator) {
  const EmissionModel em(0.5);
  const ChunkObservation obs = warm_observation(0.0, 3.0);
  EXPECT_DOUBLE_EQ(
      em.mean_throughput_mbps(4.0, obs),
      net::estimate_throughput_mbps(4.0, obs.tcp, obs.size_bytes));
}

TEST(EmissionModel, LogProbIsGaussianAroundMean) {
  const EmissionModel em(0.5);
  const ChunkObservation obs = warm_observation(0.0, 3.0);
  const double mean = em.mean_throughput_mbps(4.0, obs);
  EXPECT_DOUBLE_EQ(em.log_prob(4.0, obs),
                   math::log_normal_pdf(3.0, mean, 0.5));
}

TEST(EmissionModel, TrueBandwidthIsMostLikelyForBigChunks) {
  // A warm connection downloading a large chunk observes Y ~ GTBW, so
  // the emission should peak at (or next to) the true value.
  const EmissionModel em(0.5);
  const ChunkObservation obs = warm_observation(0.0, 4.0, 8e6);
  double best_c = -1.0, best_lp = -1e300;
  for (double c = 0.5; c <= 10.0; c += 0.5) {
    const double lp = em.log_prob(c, obs);
    if (lp > best_lp) {
      best_lp = lp;
      best_c = c;
    }
  }
  EXPECT_NEAR(best_c, 4.0, 0.51);
}

TEST(EmissionModel, SmallChunkLikelihoodIsFlatAboveThreshold) {
  // For a chunk far below the BDP, throughput is RTT-bound: candidates
  // above some level are indistinguishable (the paper's uncertainty).
  const EmissionModel em(0.5);
  ChunkObservation obs = warm_observation(0.0, 0.2, 2000.0);
  const double lp8 = em.log_prob(8.0, obs);
  const double lp9 = em.log_prob(9.0, obs);
  EXPECT_NEAR(lp8, lp9, 1e-9);
}

TEST(EmissionModel, SigmaControlsSharpness) {
  const EmissionModel narrow(0.1);
  const EmissionModel wide(2.0);
  const ChunkObservation obs = warm_observation(0.0, 4.0, 8e6);
  // Off-mean candidate: the narrow model punishes it much harder.
  EXPECT_LT(narrow.log_prob(6.0, obs), wide.log_prob(6.0, obs));
}

TEST(EmissionModel, NoTcpStateVariantDiffersAfterIdle) {
  const EmissionModel full(0.5, net::TcpConfig{},
                           EmissionModel::Estimator::kFullTcp);
  const EmissionModel ablated(0.5, net::TcpConfig{},
                              EmissionModel::Estimator::kNoTcpState);
  ChunkObservation obs = warm_observation(0.0, 2.0, 250000.0);
  obs.tcp.cwnd_segments = 40.0;
  obs.tcp.last_send_gap_s = 3.0;  // idle: SSR matters
  EXPECT_NE(full.mean_throughput_mbps(6.0, obs),
            ablated.mean_throughput_mbps(6.0, obs));
}

TEST(EmissionModel, RejectsNonPositiveSigma) {
  EXPECT_THROW(EmissionModel(0.0), veritas::ContractViolation);
}

TEST(EmissionModel, MultiWindowSharesEstimatorF) {
  // The per-observation mean is identical; the span-averaging happens in
  // Ehmm's emission phase, not here.
  const EmissionModel single(0.5);
  const EmissionModel multi(0.5, net::TcpConfig{},
                            EmissionModel::Estimator::kMultiWindow);
  const ChunkObservation obs = warm_observation(0.0, 3.0);
  EXPECT_DOUBLE_EQ(single.mean_throughput_mbps(4.0, obs),
                   multi.mean_throughput_mbps(4.0, obs));
}

TEST(EmissionModel, MultiWindowEmissionMatchesSingleForShortDownloads) {
  // A download far shorter than delta spans one window: the multi-window
  // correction must be a no-op.
  using testing::small_ehmm;
  StateSpace space(1.0, 3.0);
  TransitionModel transition = TransitionModel::tridiagonal(space.size());
  Ehmm single(space, transition, EmissionModel(0.5), 5.0);
  Ehmm multi(space, transition,
             EmissionModel(0.5, net::TcpConfig{},
                           EmissionModel::Estimator::kMultiWindow),
             5.0);
  // Warm observation: 2 MB at 4 Mbps takes ~4 s < 5 s... use a smaller
  // chunk so the estimated span is well under one window.
  const std::vector<ChunkObservation> obs{warm_observation(0.0, 2.0, 2e5)};
  const math::Matrix a = testing::log_emission_matrix(single, obs);
  const math::Matrix b = testing::log_emission_matrix(multi, obs);
  EXPECT_LT(a.max_abs_diff(b), 1e-9);
}

TEST(EmissionModel, MultiWindowActivatesForLongDownloads) {
  // For a download spanning several windows the span-averaged candidate
  // differs from the start value at the edges of the state space (the
  // expected average regresses toward the interior), so the emission
  // matrix must change; in the exact middle of a symmetric chain the
  // drift cancels.
  StateSpace space(1.0, 3.0);
  TransitionModel transition = TransitionModel::tridiagonal(space.size(), 0.5);
  EmissionModel single_em(0.5);
  EmissionModel multi_em(0.5, net::TcpConfig{},
                         EmissionModel::Estimator::kMultiWindow);
  Ehmm single(space, transition, single_em, 5.0);
  Ehmm multi(space, transition, multi_em, 5.0);
  // 8 MB at ~3 Mbps -> ~21 s -> ~5 windows.
  const std::vector<ChunkObservation> obs{
      testing::warm_observation(0.0, 2.8, 8e6)};
  const std::size_t top = space.size() - 1;
  EXPECT_GT(std::abs(testing::log_emission_matrix(multi, obs)(0, top) -
                     testing::log_emission_matrix(single, obs)(0, top)),
            1e-6);
}

}  // namespace
}  // namespace veritas::core
