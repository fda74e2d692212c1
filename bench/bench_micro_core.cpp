// Microbenchmarks (google-benchmark) for the core inference primitives:
// Viterbi, forward-backward, posterior sampling, transition powers, the
// TCP simulator and the estimator f, plus a full end-to-end infer().
//
// Benchmarks that exercise the EHMM kernels take a `simd` argument:
// /simd:0 forces the scalar reference table, /simd:1 the AVX2/SSE2/NEON
// vector table, /simd:2 the AVX-512 table (each skipped when the binary
// or CPU lacks that table), so one run records every kernel table side
// by side (tools/run_bench.sh). All three compute the same bits; the
// default dispatch runs the widest one the CPU supports. Every guarded benchmark labels itself with the
// *resolved* tier name so the JSON never reports a stale dispatch mode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "abr/abr_factory.hpp"
#include "core/inference_engine.hpp"
#include "core/veritas.hpp"
#include "math/simd_kernels.hpp"
#include "net/network_path.hpp"
#include "net/throughput_estimator.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/trace.hpp"
#include "video/ladder_presets.hpp"

namespace {

using namespace veritas;
namespace sk = veritas::math::simd_kernels;

const sim::SessionLog& shared_log() {
  static const sim::SessionLog log = [] {
    const auto traces =
        trace::make_traces(trace::TraceFamily::kFccLike, 1, 2024);
    const video::Video video(video::default_video_config());
    auto abr = abr::make_abr("mpc");
    const net::NetworkPath path(traces[0], 0.08);
    return sim::run_session(video, *abr, path).log;
  }();
  return log;
}

/// Pins the benchmark's simd argument in the kernel dispatcher:
/// 0 = scalar reference, 1 = AVX2/SSE2/NEON table, 2 = AVX-512 table.
/// Returns false (after flagging a skip) when the
/// requested table is absent, and labels the benchmark with the
/// *resolved* tier name (sk::backend_name()) so recorded runs identify
/// the kernels that actually executed.
class KernelModeGuard {
 public:
  explicit KernelModeGuard(benchmark::State& state) {
    const int tier = static_cast<int>(state.range(0));
    if (tier == 1 && sk::simd_ops() == nullptr) {
      state.SkipWithError("SIMD kernel table unavailable");
      ok_ = false;
      return;
    }
    if (tier == 2 && sk::avx512_ops() == nullptr) {
      state.SkipWithError("AVX-512 kernel table unavailable");
      ok_ = false;
      return;
    }
    sk::set_mode(tier == 2   ? sk::Mode::kForceAvx512
                 : tier == 1 ? sk::Mode::kForceSimd
                             : sk::Mode::kForceScalar);
    state.SetLabel(sk::backend_name());
  }
  ~KernelModeGuard() { sk::set_mode(sk::Mode::kAuto); }
  explicit operator bool() const { return ok_; }

 private:
  bool ok_ = true;
};

void BM_Viterbi(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ehmm.viterbi(obs));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_Viterbi)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

void BM_ForwardBackward(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ehmm.forward_backward(obs));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_ForwardBackward)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

// The forward-backward *recursion* phase: emission means precomputed
// once (the TCP estimator f is scalar and identical in both modes), so
// this isolates what the SIMD kernels actually touch — batched emission
// log-pdf, vectorized exp, forward/backward/pair sweeps.
void BM_ForwardBackwardRecursion(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  core::EstimatorCache means_cache;
  core::EstimatorCache::L1 l1;
  std::vector<const double*> rows;
  std::vector<std::shared_ptr<const core::EstimatorCache::Entry>> refs;
  ehmm.emission_mean_rows_into(obs, means_cache, l1, rows, refs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ehmm.forward_backward_from_rows(obs, rows, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_ForwardBackwardRecursion)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

void BM_PosteriorSample(benchmark::State& state) {
  const core::Veritas veritas;
  const core::Ehmm ehmm = veritas.make_ehmm();
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  const auto pass = ehmm.infer_fused(obs, scratch);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sample_capacity_states(
        ehmm, pass.viterbi, pass.forward_backward, scratch, rng));
  }
}
BENCHMARK(BM_PosteriorSample);

void BM_FullInfer(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::Veritas veritas;
  for (auto _ : state) {
    benchmark::DoNotOptimize(veritas.infer(shared_log()));
  }
}
BENCHMARK(BM_FullInfer)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

core::VeritasConfig multi_window_config() {
  core::VeritasConfig cfg;
  cfg.estimator = core::EmissionModel::Estimator::kMultiWindow;
  return cfg;
}

void BM_FullInferMultiWindow(benchmark::State& state) {
  const core::Veritas veritas(multi_window_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(veritas.infer(shared_log()));
  }
}
BENCHMARK(BM_FullInferMultiWindow);

// The fused engine pass (emissions + deltas once, Viterbi + smoothing
// sharing them) with a reused scratch arena — the per-session hot path
// of InferenceEngine::infer_batch.
void BM_FusedSessionPass(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const core::InferenceEngine engine{core::VeritasConfig{}};
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer_session(obs, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_FusedSessionPass)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

void BM_FusedSessionPassMultiWindow(benchmark::State& state) {
  const core::InferenceEngine engine{multi_window_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer_session(obs, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_FusedSessionPassMultiWindow);

/// The whole emission phase of one session from a cold (W, S) cache:
/// estimator rows, then the batched log-pdf.
void BM_EmissionLogProbs(benchmark::State& state) {
  const core::InferenceEngine engine{
      state.range(0) == 0 ? core::VeritasConfig{} : multi_window_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::EstimatorCache cache;
  core::EstimatorCache::L1 l1;
  std::vector<const double*> rows;
  std::vector<std::shared_ptr<const core::EstimatorCache::Entry>> refs;
  math::Matrix logs;
  for (auto _ : state) {
    cache.clear();
    engine.ehmm().emission_mean_rows_into(obs, cache, l1, rows, refs);
    engine.ehmm().emission_log_probs_from_rows_into(obs, rows, logs);
    benchmark::DoNotOptimize(logs);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_EmissionLogProbs)->Arg(0)->Arg(1);

// ------------------------------------------------------- kernel-level

/// Shared fixture for the raw kernel benches: one prepared session
/// (padded scratch tables) plus the dense Δ=1 transition tables, in the
/// probability and log domains.
struct KernelFixture {
  core::Veritas veritas;
  core::Ehmm ehmm = veritas.make_ehmm();
  std::vector<core::ChunkObservation> obs =
      core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;  ///< its emission_rows stay pinned
  core::TransitionModel::StepLayouts layouts;
  sk::DeltaTables tables;
  sk::DeltaTables log_tables;
  std::size_t k = 0;
  std::size_t stride = 0;

  KernelFixture() {
    (void)ehmm.forward_backward(obs, scratch);
    using Domain = core::TransitionModel::Domain;
    tables = ehmm.transition().tables(1, Domain::kProbability, layouts);
    log_tables = ehmm.transition().tables(1, Domain::kLog, layouts);
    k = ehmm.space().size();
    stride = tables.stride;
  }
};

const KernelFixture& kernel_fixture() {
  static const KernelFixture fixture;
  return fixture;
}

const sk::KernelOps& bench_ops(const benchmark::State& state) {
  if (state.range(0) == 2) return *sk::avx512_ops();
  return state.range(0) == 1 ? *sk::simd_ops() : sk::scalar_ops();
}

bool skip_if_no_simd(benchmark::State& state) {
  if (state.range(0) == 1 && sk::simd_ops() == nullptr) {
    state.SkipWithError("SIMD kernel table unavailable");
    return true;
  }
  if (state.range(0) == 2 && sk::avx512_ops() == nullptr) {
    state.SkipWithError("AVX-512 kernel table unavailable");
    return true;
  }
  state.SetLabel(bench_ops(state).name);
  return false;
}

// One batched emission row: k Normal log-densities from a means row.
void BM_KernelEmissionRow(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  std::vector<double> out(f.stride, 0.0);
  const double* means = f.scratch.emission_rows[0];
  for (auto _ : state) {
    ops.emission_log_pdf_row(4.2, means, f.k, f.stride, 0.5,
                             -0.6931471805599453, 0.9189385332046727,
                             out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(f.k));
}
BENCHMARK(BM_KernelEmissionRow)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

// One row of exp(log_e - max): the forward-backward emission rescale.
void BM_KernelExpRow(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  std::vector<double> out(f.stride, 0.0);
  const double* log_row = f.scratch.log_emission.row_data(0);
  for (auto _ : state) {
    ops.exp_rows(log_row, 1.5, f.stride, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(f.stride));
}
BENCHMARK(BM_KernelExpRow)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

// One k² max-plus Viterbi step over the dense Δ=1 tables.
void BM_KernelViterbiStep(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  const double* prev = f.scratch.log_emission.row_data(0);
  const double* e_n = f.scratch.log_emission.row_data(1);
  std::vector<double> curr(f.stride, 0.0);
  std::vector<std::uint32_t> back(f.stride, 0);
  for (auto _ : state) {
    ops.viterbi_step(prev, f.log_tables, f.k, e_n, curr.data(),
                     back.data());
    benchmark::DoNotOptimize(curr.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(f.k * f.k));
}
BENCHMARK(BM_KernelViterbiStep)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

// One k² sum-product forward step.
void BM_KernelForwardStep(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  const double* prev = f.scratch.alpha.row_data(0);
  const double* em_n = f.scratch.em.row_data(1);
  std::vector<double> row(f.stride, 0.0);
  for (auto _ : state) {
    ops.forward_step(prev, f.tables, f.k, em_n, row.data());
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(f.k * f.k));
}
BENCHMARK(BM_KernelForwardStep)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

// One k² backward step with the fused pair-posterior normalizer.
void BM_KernelBackwardPairStep(benchmark::State& state) {
  if (skip_if_no_simd(state)) return;
  const KernelFixture& f = kernel_fixture();
  const sk::KernelOps& ops = bench_ops(state);
  const double* em_next = f.scratch.em.row_data(1);
  const double* beta_next = f.scratch.beta.row_data(1);
  const double* alpha_n = f.scratch.alpha.row_data(0);
  std::vector<double> beta_n(f.stride, 0.0);
  double pair = 0.0;
  for (auto _ : state) {
    ops.backward_step(f.tables, f.k, em_next, beta_next, 1.25,
                      beta_n.data(), alpha_n, &pair);
    benchmark::DoNotOptimize(pair);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(f.k * f.k));
}
BENCHMARK(BM_KernelBackwardPairStep)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

// --------------------------------------------------------- transition

void BM_TransitionPower(benchmark::State& state) {
  const auto model = core::TransitionModel::tridiagonal(21);
  for (auto _ : state) {
    // Cold cache each round: build a fresh power via matrix_power.
    benchmark::DoNotOptimize(
        math::matrix_power(model.matrix(), std::size_t(state.range(0))));
  }
}
BENCHMARK(BM_TransitionPower)->Arg(2)->Arg(16)->Arg(128);

// Serving a power from the precomputed window (lock-free dense lookup)
// vs falling back past it (mutex-guarded memo; delta 200 is memoized on
// the first call, so steady-state cost = lock + map find). Motivates
// sizing VeritasConfig::precomputed_powers to the workload's gap
// distribution.
void BM_TransitionPowerLookup(benchmark::State& state) {
  static const core::TransitionModel model = [] {
    core::TransitionModel m = core::TransitionModel::tridiagonal(21);
    m.precompute_powers(core::Ehmm::kDefaultPrecomputedPowers);
    return m;
  }();
  const auto delta = std::size_t(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(&model.power(delta));
  }
}
BENCHMARK(BM_TransitionPowerLookup)->ArgName("delta")->Arg(16)->Arg(200);

void BM_EstimatorF(benchmark::State& state) {
  net::TcpState w;
  w.cwnd_segments = 25.0;
  w.ssthresh_segments = 30.0;
  w.last_send_gap_s = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::estimate_throughput_mbps(4.0, w, double(state.range(0))));
  }
}
BENCHMARK(BM_EstimatorF)->Arg(25000)->Arg(250000)->Arg(1000000);

// ------------------------------------------ batched estimator (PR 5)

/// k = 17 states (ε = 0.5, max 8 Mbps): the candidate-count the PR 5
/// acceptance bar is written against.
core::VeritasConfig k17_config() {
  core::VeritasConfig cfg;
  cfg.max_mbps = 8.0;
  return cfg;
}

/// f over the whole 17-candidate row in one call. /simd:0 runs the
/// reference composition (17 scalar estimator calls — the PR 4 emission
/// path), /simd:1 the lane-parallel kernel.
void BM_EstimatorBatchK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  std::vector<double> candidates;
  for (int i = 0; i < 17; ++i) candidates.push_back(0.5 * i);
  net::TcpState w;
  w.cwnd_segments = 25.0;
  w.ssthresh_segments = 30.0;
  w.last_send_gap_s = 1.0;
  std::vector<double> out(candidates.size(), 0.0);
  for (auto _ : state) {
    net::estimate_throughput_batch(candidates, w, 250000.0, net::TcpConfig{},
                                   out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(candidates.size()));
}
BENCHMARK(BM_EstimatorBatchK17)->ArgName("simd")->Arg(0)->Arg(1)->Arg(2);

/// CA-dominated batch: every candidate's pipe is wider than the opening
/// window (bdp > cwnd0 at min_rtt 80 ms needs gtbw > 1.8 Mbps, so no
/// lane short-circuits to the covered-pipe branch) and the window starts
/// above ssthresh (no slow start, no idle gap → no SSR) with a large
/// transfer, so every lane opens with a long congestion-avoidance run.
/// PR 6 drained each lane to the scalar per-candidate CA loop here;
/// PR 7 keeps the candidates in SoA lanes through the arithmetic-series
/// CA jump, which is where this bench's /simd:1-vs-/simd:0 gap comes
/// from.
void BM_EstimatorBatchCaHeavyK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  std::vector<double> candidates;
  for (int i = 0; i < 17; ++i) candidates.push_back(4.0 + 4.0 * i);
  net::TcpState w;
  w.cwnd_segments = 12.0;
  w.ssthresh_segments = 6.0;
  w.last_send_gap_s = 0.0;
  std::vector<double> out(candidates.size(), 0.0);
  for (auto _ : state) {
    net::estimate_throughput_batch(candidates, w, 16000000.0,
                                   net::TcpConfig{}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(candidates.size()));
}
BENCHMARK(BM_EstimatorBatchCaHeavyK17)
    ->ArgName("simd")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

/// The emission-means phase of one session (the estimator-bound part of
/// prepare()): /warm:0 clears the (W, S) cache every iteration (every
/// tuple re-runs f — the cross-session-cache-less cost), /warm:1 leaves
/// it warm (every row is one cache probe — the steady state of an engine
/// serving repeat traffic).
void BM_EmissionMeansK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const bool warm = state.range(1) == 1;
  const core::InferenceEngine engine{k17_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::EstimatorCache cache;
  core::EstimatorCache::L1 l1;
  std::vector<const double*> rows;
  std::vector<std::shared_ptr<const core::EstimatorCache::Entry>> refs;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      cache.clear();
      state.ResumeTiming();
    }
    engine.ehmm().emission_mean_rows_into(obs, cache, l1, rows, refs);
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_EmissionMeansK17)
    ->ArgNames({"simd", "warm"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

/// The PR 5 headline: one full forward-backward call *including* the
/// estimator-driven emission phase, k = 17, under the dispatch mode of
/// /simd with the cross-session cache warm or cold per /warm.
void BM_FbWithEstimatorK17(benchmark::State& state) {
  KernelModeGuard guard(state);
  if (!guard) return;
  const bool warm = state.range(1) == 1;
  const core::InferenceEngine engine{k17_config()};
  const auto obs = core::observations_from_log(shared_log());
  core::Ehmm::Scratch scratch;
  scratch.estimator_cache = engine.estimator_cache();
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      scratch.estimator_cache->clear();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(engine.ehmm().forward_backward(obs, scratch));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(obs.size()));
}
BENCHMARK(BM_FbWithEstimatorK17)
    ->ArgNames({"simd", "warm"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

/// A fleet-like corpus: 192 FCC-like sessions, each under MPC, BBA or
/// BOLA in turn, simulated once.
const std::vector<sim::SessionLog>& fleet_logs() {
  static const auto fleet = [] {
    const auto traces =
        trace::make_traces(trace::TraceFamily::kFccLike, 192, 7);
    const video::Video video(video::default_video_config());
    const char* const abrs[] = {"mpc", "bba", "bola"};
    std::vector<sim::SessionLog> out;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      auto abr = abr::make_abr(abrs[i % 3]);
      const net::NetworkPath path(traces[i], 0.08);
      out.push_back(sim::run_session(video, *abr, path).log);
    }
    return out;
  }();
  return fleet;
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}
double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// Engine construction (what perfbench's setup_s times) right after an
/// engine that abducted the fleet, and so holds its rows in the
/// estimator cache, was destroyed: any cost the freed cache leaves in the
/// allocator for the next construction to pay shows here. One build per
/// repetition, so the min/median/max aggregates are the distribution
/// over rebuilds.
void BM_EngineBuildAfterFilledCache(benchmark::State& state) {
  const core::VeritasConfig config;
  const auto& fleet = fleet_logs();
  std::optional<core::InferenceEngine> engine;
  for (auto _ : state) {
    state.PauseTiming();
    engine.reset();
    {
      const core::InferenceEngine filled(config);
      core::Ehmm::Scratch scratch;
      for (const sim::SessionLog& log : fleet) {
        benchmark::DoNotOptimize(filled.infer(log, scratch));
      }
    }
    state.ResumeTiming();
    engine.emplace(config);
  }
}
BENCHMARK(BM_EngineBuildAfterFilledCache)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(30)
    ->ComputeStatistics("min", min_of)
    ->ComputeStatistics("max", max_of);

void BM_TcpDownload(benchmark::State& state) {
  const auto bw = trace::BandwidthTrace::constant(5.0, 100000.0, 5.0);
  for (auto _ : state) {
    net::TcpConnection conn(net::TcpConfig{}, 0.08);
    benchmark::DoNotOptimize(conn.download(bw, 0.0, double(state.range(0))));
  }
}
BENCHMARK(BM_TcpDownload)->Arg(25000)->Arg(1000000);

void BM_FullSession(benchmark::State& state) {
  const auto traces = trace::make_traces(trace::TraceFamily::kFccLike, 1, 7);
  const video::Video video(video::default_video_config());
  const net::NetworkPath path(traces[0], 0.08);
  for (auto _ : state) {
    auto abr = abr::make_abr("mpc");
    benchmark::DoNotOptimize(sim::run_session(video, *abr, path));
  }
}
BENCHMARK(BM_FullSession);

// The observability tax (PR 8): a TraceSpan site when tracing is
// disabled costs one relaxed atomic load (or, with the macro compiled
// out under -DVERITAS_TRACING=OFF, nothing at all — this bench then
// measures the bare loop); when enabled it adds two steady_clock reads
// plus a mutex-guarded ring store. Both numbers feed the overhead table
// in docs/OBSERVABILITY.md.
void BM_TraceSpanDisabled(benchmark::State& state) {
  util::Tracer::set_enabled(false);
  for (auto _ : state) {
    VERITAS_TRACE_SPAN("bench.disabled", "bench");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  if (!util::Tracer::kCompiledIn) {
    state.SkipWithError("tracing compiled out (-DVERITAS_TRACING=OFF)");
    return;
  }
  util::Tracer::clear();
  util::Tracer::set_enabled(true);
  for (auto _ : state) {
    VERITAS_TRACE_SPAN("bench.enabled", "bench");
    benchmark::ClobberMemory();
  }
  util::Tracer::set_enabled(false);
  util::Tracer::clear();
}
BENCHMARK(BM_TraceSpanEnabled);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the run context records the
// table active_ops() dispatches to by default on this host, so a
// recorded BENCH_*.json identifies the kernels that actually ran.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("kernels_default", sk::backend_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
