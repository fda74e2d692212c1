#include "core/ehmm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/test_helpers.hpp"
#include "util/expects.hpp"

namespace veritas::core {
namespace {

using testing::small_ehmm;
using testing::warm_observation;

// Brute force: enumerate every state sequence and compute
// P(seq, obs) = u[s0] e0(s0) Π A^Δn(s_{n-1}, s_n) e_n(s_n).
struct BruteForce {
  std::vector<std::size_t> best_path;
  double best_log_joint = -1e300;
  double log_evidence = 0.0;           // log Σ_seq P(seq, obs)
  math::Matrix marginals;              // N x K posterior
  std::vector<math::Matrix> pairs;     // N-1 pair posteriors
};

BruteForce brute_force(const Ehmm& ehmm,
                       const std::vector<ChunkObservation>& obs) {
  const std::size_t n = obs.size();
  const std::size_t k = ehmm.space().size();
  const math::Matrix log_e = testing::log_emission_matrix(ehmm, obs);
  const auto deltas = ehmm.window_deltas(obs);
  const auto initial = ehmm.transition().initial();

  BruteForce result;
  result.marginals = math::Matrix(n, k, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    result.pairs.push_back(math::Matrix(k, k, 0.0));
  }

  std::vector<std::size_t> seq(n, 0);
  double total = 0.0;
  for (;;) {
    double log_joint = std::log(initial[seq[0]]) + log_e(0, seq[0]);
    for (std::size_t t = 1; t < n; ++t) {
      const double a = ehmm.transition().power(deltas[t])(seq[t - 1], seq[t]);
      log_joint += (a > 0 ? std::log(a) : -1e300) + log_e(t, seq[t]);
    }
    const double p = std::exp(log_joint);
    total += p;
    for (std::size_t t = 0; t < n; ++t) result.marginals(t, seq[t]) += p;
    for (std::size_t t = 0; t + 1 < n; ++t) {
      result.pairs[t](seq[t], seq[t + 1]) += p;
    }
    if (log_joint > result.best_log_joint) {
      result.best_log_joint = log_joint;
      result.best_path = seq;
    }
    // Next sequence (odometer).
    std::size_t pos = 0;
    while (pos < n && ++seq[pos] == k) {
      seq[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  result.log_evidence = std::log(total);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < k; ++i) result.marginals(t, i) /= total;
  }
  for (auto& pair : result.pairs) {
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) pair(i, j) /= total;
    }
  }
  return result;
}

std::vector<ChunkObservation> small_sequence() {
  // Starts at 0, 6, 12, 14, 30 s with δ=5: windows 0, 1, 2, 2, 6 so
  // Δ = -, 1, 1, 0, 4.
  return {warm_observation(0.0, 1.1), warm_observation(6.0, 1.9),
          warm_observation(12.0, 2.2), warm_observation(14.0, 1.8),
          warm_observation(30.0, 0.4)};
}

TEST(Ehmm, WindowDeltasFromStartTimes) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  const auto deltas = ehmm.window_deltas(obs);
  ASSERT_EQ(deltas.size(), 5u);
  EXPECT_EQ(deltas[0], 0u);
  EXPECT_EQ(deltas[1], 1u);
  EXPECT_EQ(deltas[2], 1u);
  EXPECT_EQ(deltas[3], 0u);
  EXPECT_EQ(deltas[4], 4u);
}

TEST(Ehmm, WindowOfUsesDelta) {
  const Ehmm ehmm = small_ehmm();
  EXPECT_EQ(ehmm.window_of(0.0), 0u);
  EXPECT_EQ(ehmm.window_of(4.99), 0u);
  EXPECT_EQ(ehmm.window_of(5.0), 1u);
  EXPECT_EQ(ehmm.window_of(47.0), 9u);
}

TEST(Ehmm, EmissionMatrixShape) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  const math::Matrix logs = testing::log_emission_matrix(ehmm, obs);
  EXPECT_EQ(logs.rows(), obs.size());
  EXPECT_EQ(logs.cols(), ehmm.space().size());
  for (std::size_t n = 0; n < logs.rows(); ++n) {
    for (std::size_t i = 0; i < logs.cols(); ++i) {
      EXPECT_TRUE(std::isfinite(logs(n, i)));
    }
  }
}

TEST(Ehmm, ViterbiMatchesBruteForce) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  const auto viterbi = ehmm.viterbi(obs);
  const auto brute = brute_force(ehmm, obs);
  EXPECT_EQ(viterbi.states, brute.best_path);
  EXPECT_NEAR(viterbi.log_likelihood, brute.best_log_joint, 1e-9);
}

TEST(Ehmm, ForwardBackwardEvidenceMatchesBruteForce) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  const auto fb = ehmm.forward_backward(obs);
  const auto brute = brute_force(ehmm, obs);
  EXPECT_NEAR(fb.log_likelihood, brute.log_evidence, 1e-9);
}

TEST(Ehmm, PosteriorMarginalsMatchBruteForce) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  const auto fb = ehmm.forward_backward(obs);
  const auto brute = brute_force(ehmm, obs);
  EXPECT_LT(fb.gamma.max_abs_diff(brute.marginals), 1e-9);
}

TEST(Ehmm, PairPosteriorsMatchBruteForce) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  Ehmm::Scratch scratch;
  const auto fb = ehmm.forward_backward(obs, scratch);
  const auto brute = brute_force(ehmm, obs);
  ASSERT_EQ(fb.pair_totals.size(), brute.pairs.size());
  for (std::size_t t = 0; t < fb.pair_totals.size(); ++t) {
    const math::Matrix pair = ehmm.pair_posterior(fb, scratch, t);
    EXPECT_LT(pair.max_abs_diff(brute.pairs[t]), 1e-9) << "pair " << t;
  }
}

TEST(Ehmm, GammaRowsSumToOne) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  const auto fb = ehmm.forward_backward(obs);
  for (std::size_t n = 0; n < fb.gamma.rows(); ++n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < fb.gamma.cols(); ++i) sum += fb.gamma(n, i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Ehmm, PairPosteriorMarginalizesToGamma) {
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  Ehmm::Scratch scratch;
  const auto fb = ehmm.forward_backward(obs, scratch);
  const std::size_t k = ehmm.space().size();
  for (std::size_t t = 0; t + 1 < obs.size(); ++t) {
    const math::Matrix pair = ehmm.pair_posterior(fb, scratch, t);
    for (std::size_t i = 0; i < k; ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < k; ++j) row_sum += pair(i, j);
      EXPECT_NEAR(row_sum, fb.gamma(t, i), 1e-9);
    }
    for (std::size_t j = 0; j < k; ++j) {
      double col_sum = 0.0;
      for (std::size_t i = 0; i < k; ++i) col_sum += pair(i, j);
      EXPECT_NEAR(col_sum, fb.gamma(t + 1, j), 1e-9);
    }
  }
}

TEST(Ehmm, SingleObservationPosterior) {
  const Ehmm ehmm = small_ehmm();
  const std::vector<ChunkObservation> obs{warm_observation(0.0, 2.0)};
  const auto fb = ehmm.forward_backward(obs);
  EXPECT_EQ(fb.pair_totals.size(), 0u);
  // Posterior peaks at the true value (2 Mbps = state 2).
  std::size_t best = 0;
  for (std::size_t i = 1; i < ehmm.space().size(); ++i) {
    if (fb.gamma(0, i) > fb.gamma(0, best)) best = i;
  }
  EXPECT_EQ(best, 2u);
  const auto viterbi = ehmm.viterbi(obs);
  EXPECT_EQ(viterbi.states[0], 2u);
}

TEST(Ehmm, ViterbiScoresColumnArgmaxMatchesPrefixRun) {
  // The scores matrix must make every prefix's MAP end state available:
  // argmax of column n equals the final Viterbi state of the truncated
  // observation sequence.
  const Ehmm ehmm = small_ehmm();
  const auto obs = small_sequence();
  const auto full = ehmm.viterbi(obs);
  for (std::size_t n = 1; n <= obs.size(); ++n) {
    const std::vector<ChunkObservation> prefix(obs.begin(), obs.begin() + n);
    const auto partial = ehmm.viterbi(prefix);
    std::size_t best = 0;
    for (std::size_t i = 1; i < ehmm.space().size(); ++i) {
      if (full.scores(n - 1, i) > full.scores(n - 1, best)) best = i;
    }
    EXPECT_EQ(best, partial.states.back()) << "prefix " << n;
  }
}

TEST(Ehmm, ExtremeObservationsDoNotProduceNan) {
  const Ehmm ehmm = small_ehmm(0.05);  // very sharp emissions
  std::vector<ChunkObservation> obs;
  for (int i = 0; i < 20; ++i) {
    // Observations wildly inconsistent with every state.
    obs.push_back(warm_observation(double(i) * 5.0, (i % 2) ? 0.01 : 3.0));
  }
  const auto fb = ehmm.forward_backward(obs);
  EXPECT_TRUE(std::isfinite(fb.log_likelihood) || fb.log_likelihood < 0);
  for (std::size_t n = 0; n < fb.gamma.rows(); ++n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < fb.gamma.cols(); ++i) {
      EXPECT_FALSE(std::isnan(fb.gamma(n, i)));
      sum += fb.gamma(n, i);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Ehmm, RejectsEmptyObservations) {
  const Ehmm ehmm = small_ehmm();
  const std::vector<ChunkObservation> empty;
  EXPECT_THROW(ehmm.viterbi(empty), veritas::ContractViolation);
  EXPECT_THROW(ehmm.forward_backward(empty), veritas::ContractViolation);
}

TEST(Ehmm, RejectsMismatchedStateCount) {
  StateSpace space(1.0, 3.0);  // 4 states
  TransitionModel transition = TransitionModel::tridiagonal(5);
  EmissionModel emission(0.5);
  EXPECT_THROW(Ehmm(space, transition, emission, 5.0),
               veritas::ContractViolation);
}

// Property: Viterbi log-likelihood never exceeds total evidence, and both
// agree for a near-deterministic model.
class ViterbiVsEvidence : public ::testing::TestWithParam<double> {};

TEST_P(ViterbiVsEvidence, JointBelowEvidence) {
  const Ehmm ehmm = small_ehmm(GetParam());
  const auto obs = small_sequence();
  const auto viterbi = ehmm.viterbi(obs);
  const auto fb = ehmm.forward_backward(obs);
  EXPECT_LE(viterbi.log_likelihood, fb.log_likelihood + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, ViterbiVsEvidence,
                         ::testing::Values(0.1, 0.25, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace veritas::core
