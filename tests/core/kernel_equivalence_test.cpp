// Kernel-table equivalence. Every vector table (the AVX2/SSE2/NEON one
// and the AVX-512 one, whichever this build and CPU can run) is held to
// the same contract:
//
//  * raw-kernel level, k ∈ {1, 3, 8, 17, 21, 32, 201} (21 and 201 are
//    the state counts the fleet and wide-grid workloads serve): the
//    viterbi / forward / backward steps and the emission log-pdf row
//    must be *bit-identical* to the scalar reference (the vector kernels
//    vectorize across outputs, broadcast the sequential input and never
//    fuse a mul+add); the pair-posterior normalizer and exp rows agree
//    within tight tolerances. Non-lane-multiple k exercises the padded
//    tail columns. exp/log rows are bitwise equal across vector tables.
//  * Ehmm level, k ∈ {3, 8, 17, 32}: identical Viterbi paths, scores
//    and backpointer-driven decisions, posteriors within 1e-9 (observed
//    ~1e-13: only the exp approximation and the pair reduction differ;
//    the AVX-512 table is held to 1e-12), at 1 and 4 inference threads.
//  * exact supports: each kernel restricted to the recorded row/column
//    supports of A^Δ is bit-identical to itself over the full ranges, on
//    every tier, for tridiagonal / banded / uniform / zero-column priors,
//    k ∈ {1, 3, 8, 17, 32, 201} and Δ on both sides of the dense table.
//  * the configurable A^Δ precompute window: a tiny dense table plus
//    the shared_mutex memo must reproduce the full-table results
//    bit-for-bit.
//  * dispatch: kAuto resolves the widest table the CPU runs, and
//    backend_name() reports the table actually serving the kernels.
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

/// The vector tables this build and CPU can run, widest last.
std::vector<const sk::KernelOps*> vector_tables() {
  std::vector<const sk::KernelOps*> tables;
  if (simd_available()) tables.push_back(sk::simd_ops());
  if (avx512_available()) tables.push_back(sk::avx512_ops());
  return tables;
}

/// The forced modes that resolve to those tables, in the same order.
std::vector<sk::Mode> vector_modes() {
  std::vector<sk::Mode> modes;
  if (simd_available()) modes.push_back(sk::Mode::kForceSimd);
  if (avx512_available()) modes.push_back(sk::Mode::kForceAvx512);
  return modes;
}

/// Same bits over the first n entries (signed zeros and NaNs included).
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b,
               std::size_t n) {
  return std::memcmp(a.data(), b.data(), n * sizeof(T)) == 0;
}

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

/// Holds one vector table's raw kernels to the scalar reference over k
/// states (transition and inputs drawn from `seed`).
void expect_raw_kernels_match_scalar(const sk::KernelOps& simd,
                                     std::size_t k, std::uint64_t seed) {
  const std::size_t stride = math::padded_cols(k);
  core::TransitionModel model = random_transition(k, seed + k);
  model.precompute_powers(4);
  core::TransitionModel::StepLayouts step;
  const sk::DeltaTables tables = model.tables(2, Domain::kProbability, step);
  const sk::DeltaTables log_tables = model.tables(2, Domain::kLog, step);
  ASSERT_EQ(tables.stride, stride);

  const sk::KernelOps& scalar = sk::scalar_ops();
  const double inf = std::numeric_limits<double>::infinity();
  const double sigma = 0.75;
  const double log_sigma = std::log(sigma);
  const double half_log_2pi = 0.5 * std::log(8.0 * std::atan(1.0));

  std::mt19937_64 rng(seed + 800 + k);
  for (int round = 0; round < 25; ++round) {
    // Log-domain inputs for viterbi (pads -inf), probability-domain for
    // the sum-product kernels (pads 0).
    const std::vector<double> prev_log =
        padded_row(k, -inf, rng, -40.0, 0.0);
    const std::vector<double> e_n = padded_row(k, -inf, rng, -40.0, 0.0);
    const std::vector<double> prev_prob = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> em = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> beta = padded_row(k, 0.0, rng, 0.0, 2.0);
    const std::vector<double> alpha = padded_row(k, 0.0, rng, 0.0, 1.0);
    const std::vector<double> means = padded_row(k, 0.0, rng, 0.0, 12.0);
    const std::string where =
        std::string(simd.name) + " k=" + std::to_string(k);

    // Viterbi: scores and backpointers bit-identical.
    std::vector<double> curr_a(stride, 0.0), curr_b(stride, 0.0);
    std::vector<std::uint32_t> back_a(stride, 0), back_b(stride, 0);
    scalar.viterbi_step(prev_log.data(), log_tables, k, e_n.data(),
                        curr_a.data(), back_a.data());
    simd.viterbi_step(prev_log.data(), log_tables, k, e_n.data(),
                      curr_b.data(), back_b.data());
    EXPECT_TRUE(same_bits(curr_a, curr_b, k)) << where;
    EXPECT_TRUE(same_bits(back_a, back_b, k)) << where;

    // Emission log-pdf row: bit-identical (unpadded input row, the
    // zero-copy cache path's shape), -inf pads.
    std::vector<double> erow_a(stride, -1.0), erow_b(stride, -1.0);
    scalar.emission_log_pdf_row(1.875, means.data(), k, stride, sigma,
                                log_sigma, half_log_2pi, erow_a.data());
    simd.emission_log_pdf_row(1.875, means.data(), k, stride, sigma,
                              log_sigma, half_log_2pi, erow_b.data());
    EXPECT_TRUE(same_bits(erow_a, erow_b, stride)) << where;
    for (std::size_t i = k; i < stride; ++i) EXPECT_EQ(erow_b[i], -inf);

    // Forward: bit-identical.
    std::vector<double> row_a(stride, 0.0), row_b(stride, 0.0);
    scalar.forward_step(prev_prob.data(), tables, k, em.data(),
                        row_a.data());
    simd.forward_step(prev_prob.data(), tables, k, em.data(),
                      row_b.data());
    EXPECT_TRUE(same_bits(row_a, row_b, k)) << where;

    // Backward: beta bit-identical; fused pair total within tolerance
    // of the scalar (historical-order) accumulation.
    std::vector<double> beta_a(stride, 0.0), beta_b(stride, 0.0);
    double pair_a = 0.0, pair_b = 0.0;
    scalar.backward_step(tables, k, em.data(), beta.data(), 1.375,
                         beta_a.data(), alpha.data(), &pair_a);
    simd.backward_step(tables, k, em.data(), beta.data(), 1.375,
                       beta_b.data(), alpha.data(), &pair_b);
    EXPECT_TRUE(same_bits(beta_a, beta_b, k)) << where;
    EXPECT_NEAR(pair_a, pair_b, 1e-12 * std::max(1.0, std::abs(pair_a)))
        << where;
    // Standalone pair kernel agrees with the fused accumulation.
    const double pair_c =
        simd.pair_total(alpha.data(), tables, k, em.data(), beta.data());
    EXPECT_NEAR(pair_b, pair_c, 1e-12 * std::max(1.0, std::abs(pair_b)))
        << where;

    // exp rows (full padded stride, -inf pads -> exact 0).
    std::vector<double> em_a(stride, -1.0), em_b(stride, -1.0);
    scalar.exp_rows(e_n.data(), -3.0, stride, em_a.data());
    simd.exp_rows(e_n.data(), -3.0, stride, em_b.data());
    for (std::size_t i = 0; i < stride; ++i) {
      EXPECT_NEAR(em_a[i], em_b[i], 5e-15 * em_a[i] + 0.0)
          << where << " i=" << i;
    }
    for (std::size_t i = k; i < stride; ++i) EXPECT_EQ(em_b[i], 0.0);
  }
}

class KernelEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelEquivalence, RawKernelsMatchScalar) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  expect_raw_kernels_match_scalar(*sk::simd_ops(), GetParam(), 100);
}

// The AVX-512 table has no fused multiply-add, so its gate is the same
// bit-exact contract as the AVX2/SSE2/NEON table's.
TEST_P(KernelEquivalence, Avx512RawKernelsWithinGate) {
  if (!avx512_available()) {
    GTEST_SKIP() << "no AVX-512 table in this build/CPU";
  }
  expect_raw_kernels_match_scalar(*sk::avx512_ops(), GetParam(), 500);
}

INSTANTIATE_TEST_SUITE_P(StateCounts, KernelEquivalence,
                         ::testing::Values(1, 3, 8, 17, 21, 32, 201));

// The vexp/vlog approximations use only exact lane arithmetic, so every
// vector table computes the same bits for every row, whatever its lane
// width: full lanes, partial tails and the -inf / 0 pads of real
// recursions alike.
TEST(KernelEquivalence, ExpLogRowsBitIdenticalAcrossVectorTables) {
  const std::vector<const sk::KernelOps*> tables = vector_tables();
  if (tables.size() < 2) GTEST_SKIP() << "fewer than two vector tables";
  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<std::size_t> length(1, 70);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  for (int round = 0; round < 700; ++round) {
    const std::size_t k = length(rng);
    const std::size_t n = math::padded_cols(k);
    // Log-domain row as the recursions build it: finite entries over a
    // wide range (down into the flush-to-zero region), -inf pads and a
    // few impossible states.
    std::vector<double> logs = padded_row(k, -inf, rng, -800.0, 5.0);
    // Probability row: mass in (0, 2], zeros, subnormals and 0 pads.
    std::vector<double> probs = padded_row(k, 0.0, rng, 0.0, 2.0);
    for (std::size_t i = round % 7; i < k; i += 7) {
      logs[i] = -inf;
      probs[i] = unit(rng) < 0.5 ? 0.0 : 1e-310 * unit(rng);
    }
    const double shift = -50.0 + 100.0 * unit(rng);

    std::vector<std::vector<double>> exps, lns;
    for (const sk::KernelOps* ops : tables) {
      exps.emplace_back(n, -1.0);
      lns.emplace_back(n, -1.0);
      ops->exp_rows(logs.data(), shift, n, exps.back().data());
      ops->log_rows(probs.data(), n, lns.back().data());
    }
    for (std::size_t t = 1; t < tables.size(); ++t) {
      const std::string where = std::string(tables[0]->name) + " vs " +
                                tables[t]->name + " k=" + std::to_string(k);
      EXPECT_TRUE(same_bits(exps[0], exps[t], n)) << "exp " << where;
      EXPECT_TRUE(same_bits(lns[0], lns[t], n)) << "log " << where;
    }
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

/// The kernel tables of every forced tier this build and CPU can run.
std::vector<const sk::KernelOps*> every_tier() {
  std::vector<const sk::KernelOps*> tiers = vector_tables();
  tiers.insert(tiers.begin(), &sk::scalar_ops());
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

/// Runs the engine over k states under the forced vector `table` at 1
/// and 4 inference threads and holds it to the scalar run: identical
/// Viterbi decisions (the max-plus kernel is bit-identical and emissions
/// are bitwise equal), posteriors and log-likelihood within `gate`.
void expect_engine_matches_scalar(sk::Mode table, std::size_t k,
                                  double gate) {
  const core::VeritasConfig cfg = config_for_states(k);
  const core::InferenceEngine engine(cfg);
  ASSERT_EQ(engine.ehmm().space().size(), k);
  const auto logs = test_logs();

  std::vector<core::VeritasResult> scalar_results;
  {
    const sk::ScopedMode mode(sk::Mode::kForceScalar);
    for (const auto& log : logs) scalar_results.push_back(engine.infer(log));
  }

  const sk::ScopedMode mode(table);
  const std::string name = sk::backend_name();
  for (const std::size_t threads : {1u, 4u}) {
    const std::vector<core::VeritasResult> simd_results =
        engine.infer_batch(logs, threads);
    ASSERT_EQ(simd_results.size(), scalar_results.size());
    for (std::size_t s = 0; s < logs.size(); ++s) {
      const core::VeritasResult& a = scalar_results[s];
      const core::VeritasResult& b = simd_results[s];
      const std::string where = name + " k=" + std::to_string(k) +
                                " session=" + std::to_string(s);
      ASSERT_EQ(a.map_states_mbps.size(), b.map_states_mbps.size());
      for (std::size_t n = 0; n < a.map_states_mbps.size(); ++n) {
        EXPECT_EQ(a.map_states_mbps[n], b.map_states_mbps[n])
            << where << " n=" << n;
      }
      EXPECT_LE(a.posterior_marginals.max_abs_diff(b.posterior_marginals),
                gate)
          << where;
      EXPECT_NEAR(a.log_likelihood, b.log_likelihood,
                  gate * std::abs(a.log_likelihood))
          << where;
    }
  }
}

class EhmmEquivalence : public ::testing::TestWithParam<std::size_t> {};

// Posteriors within the advertised tolerance (1e-9; the only divergences
// are the exp approximation and the width-dependent pair-total lane
// reduction).
TEST_P(EhmmEquivalence, SimdMatchesScalarAcrossThreads) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD table in this build";
  expect_engine_matches_scalar(sk::Mode::kForceSimd, GetParam(), 1e-9);
}

// Forced AVX-512 end to end, within the tier's 1e-12 gate.
TEST_P(EhmmEquivalence, Avx512MatchesScalarWithinGate) {
  if (!avx512_available()) {
    GTEST_SKIP() << "no AVX-512 table in this build/CPU";
  }
  const sk::ScopedMode mode(sk::Mode::kForceAvx512);
  ASSERT_STREQ(sk::backend_name(), "avx512");
  expect_engine_matches_scalar(sk::Mode::kForceAvx512, GetParam(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(StateCounts, EhmmEquivalence,
                         ::testing::Values(3, 8, 17, 32));

// Dispatch resolution: kForceAvx512 resolves to the AVX-512 table when
// compiled in and the CPU has it, and falls back to the AVX2/SSE2/NEON
// table (then scalar) otherwise — backend_name() always reports the tier
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

// Dispatch is a function of the CPU: kAuto resolves the widest table
// compiled in and supported (AVX-512, then the AVX2/SSE2/NEON table,
// then scalar).
TEST(KernelDispatch, AutoSelectsWidestTable) {
  if (std::getenv("VERITAS_SIMD") != nullptr) {
    GTEST_SKIP() << "VERITAS_SIMD overrides auto dispatch in this run";
  }
  const sk::ScopedMode mode(sk::Mode::kAuto);
  if (avx512_available()) {
    EXPECT_STREQ(sk::backend_name(), "avx512");
  } else if (simd_available()) {
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
    for (const sk::Mode table : vector_modes()) {
      {
        const sk::ScopedMode mode(table);
        b = engine.infer(log);
      }
      for (std::size_t n = 0; n < a.map_states_mbps.size(); ++n) {
        EXPECT_EQ(a.map_states_mbps[n], b.map_states_mbps[n]);
      }
      EXPECT_LE(a.posterior_marginals.max_abs_diff(b.posterior_marginals),
                1e-9);
    }
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

  std::vector<sk::Mode> modes = vector_modes();
  modes.insert(modes.begin(), sk::Mode::kForceScalar);
  for (const sk::Mode m : modes) {
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
