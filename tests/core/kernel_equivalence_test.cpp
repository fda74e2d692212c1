// SIMD/scalar kernel equivalence:
//
//  * raw-kernel level, k ∈ {1, 3, 8, 17, 32}: the viterbi / forward /
//    backward steps must be *bit-identical* between tables (the SIMD
//    kernels vectorize across outputs and broadcast the sequential
//    input, preserving each output's accumulation order); the fused
//    pair-posterior normalizer and exp rows agree within tight
//    tolerances. Non-lane-multiple k exercises the padded tail columns.
//  * Ehmm level, k ∈ {3, 8, 17, 32}: identical Viterbi paths, scores
//    and backpointer-driven decisions, posteriors within 1e-9 (observed
//    ~1e-13: only the exp approximation and the pair reduction differ),
//    at 1 and 4 inference threads.
//  * exact supports: each kernel restricted to the recorded row/column
//    supports of A^Δ is bit-identical to itself over the full ranges, on
//    every tier, for tridiagonal / banded / uniform / zero-column priors,
//    k ∈ {1, 3, 8, 17, 32, 201} and Δ on both sides of the dense table.
//  * the configurable A^Δ precompute window: a tiny dense table plus
//    the shared_mutex memo must reproduce the full-table results
//    bit-for-bit.
//  * the opt-in AVX-512/FMA tier (PR 7): FMA-free kernels (viterbi,
//    emission rows, estimate_batch) bit-identical to scalar; fused
//    recursions and posteriors within the 1e-12 gate; dispatch
//    resolution (kAuto never picks it, kForceAvx512 falls back when
//    absent) reported truthfully by backend_name().
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference_engine.hpp"
#include "core/test_helpers.hpp"
#include "core/veritas.hpp"
#include "math/simd_kernels.hpp"
#include "trace/trace_generator.hpp"

namespace sk = veritas::math::simd_kernels;

namespace {

using namespace veritas;
using core::ChunkObservation;
using core::Ehmm;

bool simd_available() { return sk::simd_ops() != nullptr; }
bool avx512_available() { return sk::avx512_ops() != nullptr; }

/// Random row-stochastic transition over k states (k = 1 allowed).
core::TransitionModel random_transition(std::size_t k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.05, 1.0);
  math::Matrix a(k, k, 0.0);
  std::vector<double> initial(k, 0.0);
  double init_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      a(i, j) = dist(rng);
      row_sum += a(i, j);
    }
    for (std::size_t j = 0; j < k; ++j) a(i, j) /= row_sum;
    initial[i] = dist(rng);
    init_sum += initial[i];
  }
  for (double& u : initial) u /= init_sum;
  return core::TransitionModel(std::move(a), std::move(initial));
}

using Domain = core::TransitionModel::Domain;

/// Padded random row: logical entries from dist, pads = `pad`.
std::vector<double> padded_row(std::size_t k, double pad, std::mt19937_64& rng,
                               double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> row(math::padded_cols(k), pad);
  for (std::size_t i = 0; i < k; ++i) row[i] = dist(rng);
  return row;
}

class KernelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelEquivalence, RawKernelsMatchScalar) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  const std::size_t k = GetParam();
  const std::size_t stride = math::padded_cols(k);
  core::TransitionModel model = random_transition(k, 100 + k);
  model.precompute_powers(4);
  core::TransitionModel::StepLayouts step;
  const sk::DeltaTables tables = model.tables(2, Domain::kProbability, step);
  const sk::DeltaTables log_tables = model.tables(2, Domain::kLog, step);
  ASSERT_EQ(tables.stride, stride);

  const sk::KernelOps& scalar = sk::scalar_ops();
  const sk::KernelOps& simd = *sk::simd_ops();
  std::mt19937_64 rng(900 + k);

  for (int round = 0; round < 25; ++round) {
    // Log-domain inputs for viterbi (pads -inf), probability-domain for
    // the sum-product kernels (pads 0).
    const std::vector<double> prev_log =
        padded_row(k, -std::numeric_limits<double>::infinity(), rng, -40.0,
                   0.0);
    const std::vector<double> e_n =
        padded_row(k, -std::numeric_limits<double>::infinity(), rng, -40.0,
                   0.0);
    const std::vector<double> prev_prob = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> em = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> beta = padded_row(k, 0.0, rng, 0.0, 2.0);
    const std::vector<double> alpha = padded_row(k, 0.0, rng, 0.0, 1.0);

    // Viterbi: scores and backpointers bit-identical.
    std::vector<double> curr_a(stride, 0.0), curr_b(stride, 0.0);
    std::vector<std::uint32_t> back_a(stride, 0), back_b(stride, 0);
    scalar.viterbi_step(prev_log.data(), log_tables, k, e_n.data(),
                        curr_a.data(), back_a.data());
    simd.viterbi_step(prev_log.data(), log_tables, k, e_n.data(),
                      curr_b.data(), back_b.data());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(curr_a[i], curr_b[i]) << "k=" << k << " i=" << i;
      EXPECT_EQ(back_a[i], back_b[i]) << "k=" << k << " i=" << i;
    }

    // Forward: bit-identical.
    std::vector<double> row_a(stride, 0.0), row_b(stride, 0.0);
    scalar.forward_step(prev_prob.data(), tables, k, em.data(),
                        row_a.data());
    simd.forward_step(prev_prob.data(), tables, k, em.data(), row_b.data());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(row_a[i], row_b[i]) << "k=" << k << " i=" << i;
    }

    // Backward: beta bit-identical; fused pair total within tolerance
    // of the scalar (historical-order) accumulation.
    std::vector<double> beta_a(stride, 0.0), beta_b(stride, 0.0);
    double pair_a = 0.0, pair_b = 0.0;
    scalar.backward_step(tables, k, em.data(), beta.data(), 1.375,
                         beta_a.data(), alpha.data(), &pair_a);
    simd.backward_step(tables, k, em.data(), beta.data(), 1.375,
                       beta_b.data(), alpha.data(), &pair_b);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(beta_a[i], beta_b[i]) << "k=" << k << " i=" << i;
    }
    EXPECT_NEAR(pair_a, pair_b, 1e-12 * std::max(1.0, std::abs(pair_a)));
    // Standalone pair kernel agrees with the fused accumulation.
    const double pair_c =
        simd.pair_total(alpha.data(), tables, k, em.data(), beta.data());
    EXPECT_NEAR(pair_b, pair_c, 1e-12 * std::max(1.0, std::abs(pair_b)));

    // exp rows (full padded stride, -inf pads -> exact 0).
    std::vector<double> em_a(stride, -1.0), em_b(stride, -1.0);
    scalar.exp_rows(e_n.data(), -3.0, stride, em_a.data());
    simd.exp_rows(e_n.data(), -3.0, stride, em_b.data());
    for (std::size_t i = 0; i < stride; ++i) {
      EXPECT_NEAR(em_a[i], em_b[i], 5e-15 * em_a[i] + 0.0)
          << "k=" << k << " i=" << i;
    }
    for (std::size_t i = k; i < stride; ++i) EXPECT_EQ(em_b[i], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(StateCounts, KernelEquivalence,
                         ::testing::Values(1, 3, 8, 17, 32));

// The opt-in AVX-512 tier: the FMA-free kernels (viterbi, emission
// log-pdf row) stay *bit-identical* to the scalar reference; the fused
// sum-product recursions (forward / backward / pair total) and the
// transcendental rows agree within the advertised 1e-12 relative gate.
TEST_P(KernelEquivalence, Avx512RawKernelsWithinGate) {
  if (!avx512_available()) {
    GTEST_SKIP() << "no AVX-512 table in this build/CPU";
  }
  const std::size_t k = GetParam();
  const std::size_t stride = math::padded_cols(k);
  core::TransitionModel model = random_transition(k, 500 + k);
  model.precompute_powers(4);
  core::TransitionModel::StepLayouts step;
  const sk::DeltaTables tables = model.tables(2, Domain::kProbability, step);
  const sk::DeltaTables log_tables = model.tables(2, Domain::kLog, step);

  const sk::KernelOps& scalar = sk::scalar_ops();
  const sk::KernelOps& avx = *sk::avx512_ops();
  std::mt19937_64 rng(1300 + k);

  const double sigma = 0.75;
  const double log_sigma = std::log(sigma);
  const double half_log_2pi = 0.5 * std::log(8.0 * std::atan(1.0));

  for (int round = 0; round < 25; ++round) {
    const std::vector<double> prev_log =
        padded_row(k, -std::numeric_limits<double>::infinity(), rng, -40.0,
                   0.0);
    const std::vector<double> e_n =
        padded_row(k, -std::numeric_limits<double>::infinity(), rng, -40.0,
                   0.0);
    const std::vector<double> prev_prob = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> em = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> beta = padded_row(k, 0.0, rng, 0.0, 2.0);
    const std::vector<double> alpha = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> means = padded_row(k, 0.0, rng, 0.0, 12.0);

    // Viterbi: max-plus has no mul-add to fuse — bit-identical.
    std::vector<double> curr_a(stride, 0.0), curr_b(stride, 0.0);
    std::vector<std::uint32_t> back_a(stride, 0), back_b(stride, 0);
    scalar.viterbi_step(prev_log.data(), log_tables, k, e_n.data(),
                        curr_a.data(), back_a.data());
    avx.viterbi_step(prev_log.data(), log_tables, k, e_n.data(),
                     curr_b.data(), back_b.data());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(curr_a[i], curr_b[i]) << "k=" << k << " i=" << i;
      EXPECT_EQ(back_a[i], back_b[i]) << "k=" << k << " i=" << i;
    }

    // Emission log-pdf row: FMA-free — bit-identical (unpadded input
    // row, the zero-copy cache path's shape).
    std::vector<double> erow_a(stride, -1.0), erow_b(stride, -1.0);
    scalar.emission_log_pdf_row(1.875, means.data(), k, stride, sigma,
                                log_sigma, half_log_2pi, erow_a.data());
    avx.emission_log_pdf_row(1.875, means.data(), k, stride, sigma,
                             log_sigma, half_log_2pi, erow_b.data());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(erow_a[i], erow_b[i]) << "k=" << k << " i=" << i;
    }
    for (std::size_t i = k; i < stride; ++i) {
      EXPECT_EQ(erow_b[i], -std::numeric_limits<double>::infinity());
    }

    // Forward: the fused vmuladd reassociates one rounding per term.
    std::vector<double> row_a(stride, 0.0), row_b(stride, 0.0);
    scalar.forward_step(prev_prob.data(), tables, k, em.data(),
                        row_a.data());
    avx.forward_step(prev_prob.data(), tables, k, em.data(), row_b.data());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(row_a[i], row_b[i],
                  1e-12 * std::max(1.0, std::abs(row_a[i])))
          << "k=" << k << " i=" << i;
    }

    // Backward + pair total: same gate.
    std::vector<double> beta_a(stride, 0.0), beta_b(stride, 0.0);
    double pair_a = 0.0, pair_b = 0.0;
    scalar.backward_step(tables, k, em.data(), beta.data(), 1.375,
                         beta_a.data(), alpha.data(), &pair_a);
    avx.backward_step(tables, k, em.data(), beta.data(), 1.375,
                      beta_b.data(), alpha.data(), &pair_b);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(beta_a[i], beta_b[i],
                  1e-12 * std::max(1.0, std::abs(beta_a[i])))
          << "k=" << k << " i=" << i;
    }
    EXPECT_NEAR(pair_a, pair_b, 1e-12 * std::max(1.0, std::abs(pair_a)));
    const double pair_c =
        avx.pair_total(alpha.data(), tables, k, em.data(), beta.data());
    EXPECT_NEAR(pair_b, pair_c, 1e-12 * std::max(1.0, std::abs(pair_b)));

    // exp rows: same Cephes polynomial, fused inner steps.
    std::vector<double> em_a(stride, -1.0), em_b(stride, -1.0);
    scalar.exp_rows(e_n.data(), -3.0, stride, em_a.data());
    avx.exp_rows(e_n.data(), -3.0, stride, em_b.data());
    for (std::size_t i = 0; i < stride; ++i) {
      EXPECT_NEAR(em_a[i], em_b[i], 1e-13 * em_a[i] + 0.0)
          << "k=" << k << " i=" << i;
    }
    for (std::size_t i = k; i < stride; ++i) EXPECT_EQ(em_b[i], 0.0);
  }
}

// Exact-support kernels: every kernel given the recorded row/column
// supports of A^Δ must be bit-identical to the same kernel given null
// ranges (the full j-loops), on every tier — the skipped terms are
// exact zeros / -inf candidates. Covers priors with every support shape
// (tridiagonal bands, a wider band, full rows, an all-zero column), lane
// tails (k ∈ {1, 3, 8, 17, 32, 201}) and Δ on both sides of the dense
// table (65 and 200 are memo entries whose layouts the step builds).

enum class Prior { kTridiagonal, kBanded, kUniform, kZeroColumn };

core::TransitionModel prior_model(Prior prior, std::size_t k) {
  if (k == 1) {
    return core::TransitionModel(math::Matrix(1, 1, 1.0), {1.0});
  }
  switch (prior) {
    case Prior::kTridiagonal:
      return core::TransitionModel::tridiagonal(k);
    case Prior::kBanded:
      return core::TransitionModel::banded(k, 3);
    case Prior::kUniform:
      return core::TransitionModel::uniform(k);
    case Prior::kZeroColumn:
      return core::testing::zero_column_transition(k, k / 2);
  }
  return core::TransitionModel::uniform(k);
}

/// Same bits over the first n entries (signed zeros and NaNs included).
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b,
               std::size_t n) {
  return std::memcmp(a.data(), b.data(), n * sizeof(T)) == 0;
}

/// The kernel tables of every forced tier this build and CPU can run.
std::vector<const sk::KernelOps*> every_tier() {
  std::vector<const sk::KernelOps*> tiers = {&sk::scalar_ops()};
  if (simd_available()) tiers.push_back(sk::simd_ops());
  if (avx512_available()) tiers.push_back(sk::avx512_ops());
  return tiers;
}

class KernelSupport
    : public ::testing::TestWithParam<std::tuple<Prior, std::size_t>> {};

std::string support_case_name(
    const ::testing::TestParamInfo<KernelSupport::ParamType>& info) {
  static const char* const kNames[] = {"Tridiagonal", "Banded", "Uniform",
                                       "ZeroColumn"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "K" + std::to_string(std::get<1>(info.param));
}

TEST_P(KernelSupport, RestrictedKernelsMatchFullRangesBitwise) {
  const auto [prior, k] = GetParam();
  const std::size_t stride = math::padded_cols(k);
  core::TransitionModel model = prior_model(prior, k);
  model.precompute_powers(core::Ehmm::kDefaultPrecomputedPowers);
  core::TransitionModel::StepLayouts step;
  std::mt19937_64 rng(31 * k + static_cast<std::size_t>(prior));
  const double inf = std::numeric_limits<double>::infinity();

  for (const std::size_t delta : {0, 1, 2, 63, 64, 65, 200}) {
    const sk::DeltaTables prob =
        model.tables(delta, Domain::kProbability, step);
    const sk::DeltaTables logs = model.tables(delta, Domain::kLog, step);
    ASSERT_NE(prob.rows, nullptr);
    ASSERT_NE(prob.col_blocks, nullptr);
    const auto without_supports = [](sk::DeltaTables tables) {
      tables.rows = tables.cols = nullptr;
      tables.row_blocks = tables.col_blocks = nullptr;
      return tables;
    };
    const sk::DeltaTables prob_full = without_supports(prob);
    const sk::DeltaTables logs_full = without_supports(logs);

    for (const sk::KernelOps* ops : every_tier()) {
      for (int round = 0; round < 3; ++round) {
        std::vector<double> prev_log =
            padded_row(k, -inf, rng, -40.0, 0.0);
        std::vector<double> prev_prob = padded_row(k, 0.0, rng, 0.0, 1.0);
        const std::vector<double> e_n = padded_row(k, -inf, rng, -40.0, 0.0);
        const std::vector<double> em = padded_row(k, 0.0, rng, 0.0, 1.0);
        const std::vector<double> beta = padded_row(k, 0.0, rng, 0.0, 2.0);
        const std::vector<double> alpha = padded_row(k, 0.0, rng, 0.0, 1.0);
        // Impossible predecessors and empty forward mass, as real
        // recursions produce them.
        for (std::size_t j = round; j < k; j += 5) {
          prev_log[j] = -inf;
          prev_prob[j] = 0.0;
        }
        const std::string where = std::string(ops->name) +
                                  " k=" + std::to_string(k) +
                                  " delta=" + std::to_string(delta);

        std::vector<double> curr_a(stride, 0.0), curr_b(stride, 0.0);
        std::vector<std::uint32_t> back_a(stride, 7), back_b(stride, 7);
        ops->viterbi_step(prev_log.data(), logs, k, e_n.data(),
                          curr_a.data(), back_a.data());
        ops->viterbi_step(prev_log.data(), logs_full, k, e_n.data(),
                          curr_b.data(), back_b.data());
        EXPECT_TRUE(same_bits(curr_a, curr_b, stride)) << where;
        EXPECT_TRUE(same_bits(back_a, back_b, k)) << where;

        std::vector<double> row_a(stride, 0.0), row_b(stride, 0.0);
        ops->forward_step(prev_prob.data(), prob, k, em.data(),
                          row_a.data());
        ops->forward_step(prev_prob.data(), prob_full, k, em.data(),
                          row_b.data());
        EXPECT_TRUE(same_bits(row_a, row_b, stride)) << where;

        std::vector<double> beta_a(stride, 0.0), beta_b(stride, 0.0);
        double pair_a = 0.0, pair_b = 0.0;
        ops->backward_step(prob, k, em.data(), beta.data(), 1.375,
                           beta_a.data(), alpha.data(), &pair_a);
        ops->backward_step(prob_full, k, em.data(), beta.data(), 1.375,
                           beta_b.data(), alpha.data(), &pair_b);
        EXPECT_TRUE(same_bits(beta_a, beta_b, stride)) << where;
        EXPECT_EQ(std::memcmp(&pair_a, &pair_b, sizeof(double)), 0) << where;
        ops->backward_step(prob, k, em.data(), beta.data(), 0.5,
                           beta_a.data(), nullptr, nullptr);
        ops->backward_step(prob_full, k, em.data(), beta.data(), 0.5,
                           beta_b.data(), nullptr, nullptr);
        EXPECT_TRUE(same_bits(beta_a, beta_b, stride)) << where;

        const double total_a =
            ops->pair_total(alpha.data(), prob, k, em.data(), beta.data());
        const double total_b = ops->pair_total(alpha.data(), prob_full, k,
                                               em.data(), beta.data());
        EXPECT_EQ(std::memcmp(&total_a, &total_b, sizeof(double)), 0)
            << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PriorsAndStateCounts, KernelSupport,
    ::testing::Combine(::testing::Values(Prior::kTridiagonal, Prior::kBanded,
                                         Prior::kUniform, Prior::kZeroColumn),
                       ::testing::Values(1, 3, 8, 17, 32, 201)),
    support_case_name);

/// Ehmm over k states (k = ceil(max/eps) + 1 with eps 0.5).
core::VeritasConfig config_for_states(std::size_t k) {
  core::VeritasConfig cfg;
  cfg.epsilon_mbps = 0.5;
  cfg.max_mbps = 0.5 * static_cast<double>(k - 1);
  return cfg;
}

std::vector<sim::SessionLog> test_logs() {
  std::vector<sim::SessionLog> logs;
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const auto gtbw = trace::make_traces(trace::TraceFamily::kWideRange, 1,
                                         seed)[0];
    logs.push_back(core::testing::deployed_log(gtbw, 40));
  }
  return logs;
}

class EhmmEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EhmmEquivalence, SimdMatchesScalarAcrossThreads) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  const std::size_t k = GetParam();
  const core::VeritasConfig cfg = config_for_states(k);
  const core::InferenceEngine engine(cfg);
  ASSERT_EQ(engine.ehmm().space().size(), k);
  const auto logs = test_logs();

  std::vector<core::VeritasResult> scalar_results;
  {
    const sk::ScopedMode mode(sk::Mode::kForceScalar);
    for (const auto& log : logs) scalar_results.push_back(engine.infer(log));
  }

  const sk::ScopedMode mode(sk::Mode::kForceSimd);
  for (const std::size_t threads : {1u, 4u}) {
    const std::vector<core::VeritasResult> simd_results =
        engine.infer_batch(logs, threads);
    ASSERT_EQ(simd_results.size(), scalar_results.size());
    for (std::size_t s = 0; s < logs.size(); ++s) {
      const core::VeritasResult& a = scalar_results[s];
      const core::VeritasResult& b = simd_results[s];
      // Viterbi decisions identical (the max-plus kernel is
      // bit-identical and emissions are bitwise equal).
      ASSERT_EQ(a.map_states_mbps.size(), b.map_states_mbps.size());
      for (std::size_t n = 0; n < a.map_states_mbps.size(); ++n) {
        EXPECT_EQ(a.map_states_mbps[n], b.map_states_mbps[n])
            << "k=" << k << " session=" << s << " n=" << n;
      }
      // Posteriors within the advertised tolerance (issue: 1e-9; the
      // only divergences are the exp approximation and the pair-total
      // lane reduction).
      EXPECT_LE(a.posterior_marginals.max_abs_diff(b.posterior_marginals),
                1e-9)
          << "k=" << k << " session=" << s;
      EXPECT_NEAR(a.log_likelihood, b.log_likelihood,
                  1e-9 * std::abs(a.log_likelihood))
          << "k=" << k << " session=" << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StateCounts, EhmmEquivalence,
                         ::testing::Values(3, 8, 17, 32));

// Forced AVX-512 end to end: identical Viterbi decisions (the max-plus
// kernel and the emission log-pdf rows are bit-identical), posteriors
// and log-likelihood within the 1e-12 tier gate.
TEST_P(EhmmEquivalence, Avx512MatchesScalarWithinGate) {
  if (!avx512_available()) {
    GTEST_SKIP() << "no AVX-512 table in this build/CPU";
  }
  const std::size_t k = GetParam();
  const core::VeritasConfig cfg = config_for_states(k);
  const core::InferenceEngine engine(cfg);
  const auto logs = test_logs();

  std::vector<core::VeritasResult> scalar_results;
  {
    const sk::ScopedMode mode(sk::Mode::kForceScalar);
    for (const auto& log : logs) scalar_results.push_back(engine.infer(log));
  }

  const sk::ScopedMode mode(sk::Mode::kForceAvx512);
  ASSERT_STREQ(sk::backend_name(), "avx512");
  for (const std::size_t threads : {1u, 4u}) {
    const std::vector<core::VeritasResult> avx_results =
        engine.infer_batch(logs, threads);
    ASSERT_EQ(avx_results.size(), scalar_results.size());
    for (std::size_t s = 0; s < logs.size(); ++s) {
      const core::VeritasResult& a = scalar_results[s];
      const core::VeritasResult& b = avx_results[s];
      ASSERT_EQ(a.map_states_mbps.size(), b.map_states_mbps.size());
      for (std::size_t n = 0; n < a.map_states_mbps.size(); ++n) {
        EXPECT_EQ(a.map_states_mbps[n], b.map_states_mbps[n])
            << "k=" << k << " session=" << s << " n=" << n;
      }
      EXPECT_LE(a.posterior_marginals.max_abs_diff(b.posterior_marginals),
                1e-12)
          << "k=" << k << " session=" << s;
      EXPECT_NEAR(a.log_likelihood, b.log_likelihood,
                  1e-12 * std::abs(a.log_likelihood))
          << "k=" << k << " session=" << s;
    }
  }
}

// Dispatch resolution: kForceAvx512 resolves to the opt-in table when
// compiled in and the CPU has it, and falls back to the default vector
// tier (then scalar) otherwise — backend_name() always reports the tier
// actually serving the kernels.
TEST(KernelDispatch, ForcedAvx512ResolvesOrFallsBack) {
  const sk::ScopedMode mode(sk::Mode::kForceAvx512);
  if (avx512_available()) {
    EXPECT_STREQ(sk::backend_name(), "avx512");
  } else if (simd_available()) {
    EXPECT_STREQ(sk::backend_name(), sk::simd_ops()->name);
  } else {
    EXPECT_STREQ(sk::backend_name(), "scalar");
  }
}

// Default dispatch never auto-selects the FMA tier: kAuto must resolve
// to the bit-exact default table even on AVX-512 hosts (the tier is
// opt-in via VERITAS_SIMD=avx512 or the forced mode only).
TEST(KernelDispatch, AutoNeverSelectsAvx512) {
  if (std::getenv("VERITAS_SIMD") != nullptr) {
    GTEST_SKIP() << "VERITAS_SIMD overrides auto dispatch in this run";
  }
  const sk::ScopedMode mode(sk::Mode::kAuto);
  if (simd_available()) {
    EXPECT_STREQ(sk::backend_name(), sk::simd_ops()->name);
  } else {
    EXPECT_STREQ(sk::backend_name(), "scalar");
  }
}

TEST(EhmmEquivalence, MultiWindowEstimatorWithinTolerance) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  core::VeritasConfig cfg;
  cfg.estimator = core::EmissionModel::Estimator::kMultiWindow;
  const core::InferenceEngine engine(cfg);
  const auto logs = test_logs();
  for (const auto& log : logs) {
    core::VeritasResult a, b;
    {
      const sk::ScopedMode mode(sk::Mode::kForceScalar);
      a = engine.infer(log);
    }
    {
      const sk::ScopedMode mode(sk::Mode::kForceSimd);
      b = engine.infer(log);
    }
    for (std::size_t n = 0; n < a.map_states_mbps.size(); ++n) {
      EXPECT_EQ(a.map_states_mbps[n], b.map_states_mbps[n]);
    }
    EXPECT_LE(a.posterior_marginals.max_abs_diff(b.posterior_marginals),
              1e-9);
  }
}

// A tiny precompute window sends the long-gap deltas through the
// shared_mutex memo, whose steps build their transposed / log layouts
// into the scratch and run the same kernels as dense steps — results
// must be bit-identical to the full dense table, in both dispatch modes.
TEST(PrecomputedPowerWindow, SmallWindowBitIdenticalToLarge) {
  using core::testing::warm_observation;
  // Session with rebuffer-sized gaps: window deltas 0, 1, 2, 5, 13 with
  // δ = 5 s — everything past Δ=1 is a memo entry on the small table.
  std::vector<ChunkObservation> obs;
  obs.push_back(warm_observation(0.0, 2.0));
  obs.push_back(warm_observation(3.0, 2.5));
  obs.push_back(warm_observation(8.0, 3.0));
  obs.push_back(warm_observation(18.0, 2.0));
  obs.push_back(warm_observation(44.0, 1.5));
  obs.push_back(warm_observation(110.0, 2.5));

  const auto make = [](std::size_t powers) {
    core::StateSpace space(0.5, 10.0);
    core::TransitionModel transition =
        core::TransitionModel::tridiagonal(space.size());
    core::EmissionModel emission(0.5);
    return Ehmm(std::move(space), std::move(transition), std::move(emission),
                5.0, powers);
  };
  const Ehmm small = make(1);
  const Ehmm full = make(64);
  EXPECT_EQ(small.transition().precomputed_powers(), 2u);

  for (const sk::Mode m : {sk::Mode::kForceScalar, sk::Mode::kForceSimd}) {
    if (m == sk::Mode::kForceSimd && !simd_available()) continue;
    const sk::ScopedMode mode(m);
    Ehmm::Scratch scratch_a, scratch_b;
    const Ehmm::InferencePass a = small.infer_fused(obs, scratch_a);
    const Ehmm::InferencePass b = full.infer_fused(obs, scratch_b);
    EXPECT_EQ(a.viterbi.states, b.viterbi.states);
    EXPECT_EQ(a.viterbi.scores.max_abs_diff(b.viterbi.scores), 0.0);
    EXPECT_EQ(a.forward_backward.gamma.max_abs_diff(b.forward_backward.gamma),
              0.0);
    EXPECT_EQ(a.forward_backward.log_likelihood,
              b.forward_backward.log_likelihood);
    ASSERT_EQ(a.forward_backward.pair_totals.size(),
              b.forward_backward.pair_totals.size());
    // One kernel path for every Δ: even the SIMD pair totals, whose lane
    // reduction differs from scalar order, match exactly.
    EXPECT_EQ(a.forward_backward.pair_totals, b.forward_backward.pair_totals);
    util::Rng rng_a(42), rng_b(42);
    EXPECT_EQ(
        small.sample_posterior(a.viterbi, a.forward_backward, scratch_a, rng_a),
        full.sample_posterior(b.viterbi, b.forward_backward, scratch_b, rng_b));
  }
}

}  // namespace
