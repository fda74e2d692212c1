// Golden equivalence tests for the xi-free refactor: Baum-Welch trained
// parameters and posterior sampler draws must be bit-identical to the
// seed's xi-materializing pathway (replayed here through the
// pair_posterior compatibility accessor), at 1 and at 4 E-step threads —
// and ForwardBackwardResult must no longer carry per-step k×k pair
// matrices at all.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/baum_welch.hpp"
#include "core/test_helpers.hpp"
#include "trace/trace_generator.hpp"
#include "util/rng.hpp"

namespace veritas::core {
namespace {

using testing::deployed_log;
using testing::small_ehmm;
using testing::warm_observation;

// ---- structural guarantee -------------------------------------------------

template <typename T, typename = void>
struct HasXiMember : std::false_type {};
template <typename T>
struct HasXiMember<T, std::void_t<decltype(std::declval<T>().xi)>>
    : std::true_type {};

static_assert(!HasXiMember<Ehmm::ForwardBackwardResult>::value,
              "ForwardBackwardResult must not materialize per-step k x k "
              "xi matrices; the sampler and Baum-Welch read alpha/beta/"
              "emission rows on the fly");

TEST(XiFree, ForwardBackwardAllocatesOnlyScalarsPerStep) {
  const Ehmm ehmm = small_ehmm();
  std::vector<ChunkObservation> obs;
  for (int n = 0; n < 12; ++n) {
    obs.push_back(warm_observation(5.0 * n, 1.5 + 0.1 * (n % 4)));
  }
  Ehmm::Scratch scratch;
  const auto fb = ehmm.forward_backward(obs, scratch);
  // One scalar normalizer per adjacent pair is all that is kept.
  EXPECT_EQ(fb.pair_totals.size(), obs.size() - 1);
  // And the pair posterior is still fully recoverable from it.
  for (std::size_t n = 0; n + 1 < obs.size(); ++n) {
    const math::Matrix pair = ehmm.pair_posterior(fb, scratch, n);
    double sum = 0.0;
    for (std::size_t i = 0; i < pair.rows(); ++i) {
      for (std::size_t j = 0; j < pair.cols(); ++j) sum += pair(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "pair " << n;
  }
}

// ---- Baum-Welch golden reference ------------------------------------------

// The seed's E-step statistics, computed from fully materialized pair
// posteriors (via the compatibility accessor) with per-session partials
// merged in session order — the shape the xi-free production path must
// reproduce bit for bit.
BaumWelchResult reference_train(
    const Ehmm& initial,
    const std::vector<std::vector<ChunkObservation>>& sessions,
    const BaumWelchConfig& config) {
  const std::size_t k = initial.space().size();
  math::Matrix a = initial.transition().matrix();
  std::vector<double> u(initial.transition().initial().begin(),
                        initial.transition().initial().end());
  double sigma = initial.emission().sigma_mbps();
  BaumWelchResult result{TransitionModel(a, u), sigma, {}, 0};

  double previous_ll = -std::numeric_limits<double>::infinity();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    const Ehmm model(initial.space(), TransitionModel(a, u),
                     EmissionModel(sigma, initial.emission().tcp_config(),
                                   initial.emission().estimator()),
                     initial.delta_s());

    struct Partial {
      math::Matrix counts;
      std::vector<double> initial;
      double residual_sq = 0.0;
      double residual_weight = 0.0;
      double ll = 0.0;
    };
    std::vector<Partial> partials(sessions.size());
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const auto& obs = sessions[s];
      Ehmm::Scratch scratch;
      const Ehmm::ForwardBackwardResult fb =
          model.forward_backward(obs, scratch);
      const std::vector<std::size_t> deltas = model.window_deltas(obs);
      Partial& p = partials[s];
      p.counts = math::Matrix(k, k, 0.0);
      p.initial.assign(k, 0.0);
      p.ll = fb.log_likelihood;
      for (std::size_t i = 0; i < k; ++i) p.initial[i] += fb.gamma(0, i);
      for (std::size_t n = 0; n + 1 < obs.size(); ++n) {
        if (deltas[n + 1] != 1) continue;
        const math::Matrix xi = model.pair_posterior(fb, scratch, n);
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t j = 0; j < k; ++j) p.counts(i, j) += xi(i, j);
        }
      }
      if (config.update_sigma) {
        for (std::size_t n = 0; n < obs.size(); ++n) {
          for (std::size_t i = 0; i < k; ++i) {
            const double mean = model.emission().mean_throughput_mbps(
                model.space().value(i), obs[n]);
            const double r = obs[n].throughput_mbps - mean;
            p.residual_sq += fb.gamma(n, i) * r * r;
            p.residual_weight += fb.gamma(n, i);
          }
        }
      }
    }

    math::Matrix transition_counts(k, k, config.smoothing);
    std::vector<double> initial_counts(k, config.smoothing);
    double residual_sq = 0.0, residual_weight = 0.0, total_ll = 0.0;
    for (const Partial& p : partials) {
      total_ll += p.ll;
      for (std::size_t i = 0; i < k; ++i) {
        initial_counts[i] += p.initial[i];
        for (std::size_t j = 0; j < k; ++j) {
          transition_counts(i, j) += p.counts(i, j);
        }
      }
      residual_sq += p.residual_sq;
      residual_weight += p.residual_weight;
    }

    result.log_likelihoods.push_back(total_ll);
    result.iterations = iter + 1;
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

void expect_bit_identical(const BaumWelchResult& got,
                          const BaumWelchResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.iterations, want.iterations) << label;
  ASSERT_EQ(got.log_likelihoods.size(), want.log_likelihoods.size()) << label;
  for (std::size_t i = 0; i < got.log_likelihoods.size(); ++i) {
    EXPECT_EQ(got.log_likelihoods[i], want.log_likelihoods[i])
        << label << " iteration " << i;
  }
  EXPECT_EQ(got.sigma_mbps, want.sigma_mbps) << label;
  EXPECT_EQ(got.transition.matrix().max_abs_diff(want.transition.matrix()),
            0.0)
      << label;
  ASSERT_EQ(got.transition.initial().size(), want.transition.initial().size())
      << label;
  for (std::size_t i = 0; i < got.transition.initial().size(); ++i) {
    EXPECT_EQ(got.transition.initial()[i], want.transition.initial()[i])
        << label << " u[" << i << "]";
  }
}

// Synthetic Δ=1 sessions (chunks δ apart) plus simulator sessions with
// the real Δ mix (0, 1 and multi-window hops).
std::vector<std::vector<ChunkObservation>> training_sessions() {
  std::vector<std::vector<ChunkObservation>> sessions;
  util::Rng rng(99);
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<ChunkObservation> obs;
    for (std::size_t n = 0; n < 40; ++n) {
      const double y = std::max(0.05, rng.normal(1.5 + double(s % 3) * 0.5,
                                                 0.4));
      obs.push_back(warm_observation(double(n) * 5.0, y, 8e6));
    }
    sessions.push_back(std::move(obs));
  }
  const auto traces = trace::make_traces(trace::TraceFamily::kFccLike, 2, 31);
  for (const auto& t : traces) {
    sessions.push_back(observations_from_log(deployed_log(t, 40)));
  }
  return sessions;
}

Ehmm multi_window_ehmm(double stay) {
  StateSpace space(1.0, 3.0);
  TransitionModel transition =
      TransitionModel::tridiagonal(space.size(), stay);
  EmissionModel emission(0.5, net::TcpConfig{},
                         EmissionModel::Estimator::kMultiWindow);
  return Ehmm(std::move(space), std::move(transition), std::move(emission),
              5.0);
}

TEST(XiFree, BaumWelchMatchesXiReferenceAtOneAndFourThreads) {
  const auto sessions = training_sessions();
  const Ehmm full_tcp = small_ehmm(0.5, 0.6);
  // kMultiWindow with σ re-estimated from the pinned entries' plain
  // rows: with update_transition off the rows stay pinned across EM
  // iterations, with it on they are refilled under each iteration's
  // span table.
  const Ehmm multi_window = multi_window_ehmm(0.6);
  struct Case {
    const char* label;
    const Ehmm* init;
    bool update_sigma;
    bool update_transition;
  };
  for (const Case& c : {Case{"full-tcp", &full_tcp, false, true},
                        Case{"full-tcp sigma", &full_tcp, true, true},
                        Case{"multi-window sigma pinned", &multi_window,
                             true, false},
                        Case{"multi-window sigma refilled", &multi_window,
                             true, true}}) {
    BaumWelchConfig cfg;
    cfg.max_iterations = 4;
    cfg.tolerance = 0.0;  // run every iteration
    cfg.update_sigma = c.update_sigma;
    cfg.update_transition = c.update_transition;
    const BaumWelchResult want = reference_train(*c.init, sessions, cfg);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      cfg.num_threads = threads;
      const BaumWelchResult got = baum_welch_train(*c.init, sessions, cfg);
      expect_bit_identical(
          got, want, std::string(c.label) + " threads=" +
                         std::to_string(threads));
    }
  }
}

TEST(XiFree, BaumWelchThreadCountInvariantUnderMultiWindow) {
  // kMultiWindow couples the emission means to A, exercising the
  // recompute-every-iteration path; thread counts must still agree.
  const auto sessions = training_sessions();
  const Ehmm init = multi_window_ehmm(0.7);
  BaumWelchConfig cfg;
  cfg.max_iterations = 3;
  cfg.tolerance = 0.0;
  cfg.update_sigma = true;
  cfg.num_threads = 1;
  const BaumWelchResult serial = baum_welch_train(init, sessions, cfg);
  cfg.num_threads = 4;
  const BaumWelchResult parallel = baum_welch_train(init, sessions, cfg);
  expect_bit_identical(parallel, serial, "multi-window 4 threads");
}

}  // namespace
}  // namespace veritas::core
