// fleet_abduct, paused_wide_grid and fleet_train: abduction and EM
// training driven through InferenceEngine::infer_batch and
// baum_welch_train, with the per-layer breakdown taken from Ehmm's
// public entry points.
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "core/baum_welch.hpp"
#include "core/observation.hpp"
#include "core/reconstruction.hpp"
#include "inputs.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using veritas::core::Ehmm;
using veritas::core::InferenceEngine;
using veritas::core::VeritasConfig;
using veritas::core::VeritasResult;

/// How one abduction workload is shaped.
struct AbductionShape {
  VeritasConfig config;
  std::size_t corpus = 0;  ///< distinct sessions
  double tail = 0.0;       ///< reported batch-latency percentile
  bool paused = false;
};

Corpus make_inputs(const AbductionShape& shape, const RunConfig& run) {
  return shape.paused ? paused_corpus(shape.corpus, run.seed, run.nproc)
                      : fleet_corpus(shape.corpus, run.seed, run.nproc);
}

/// Builds `engine`, pinned (see Pin), and returns how long it took.
Timing build_timing(const VeritasConfig& config,
                    std::unique_ptr<InferenceEngine>& engine, std::size_t index) {
  return timed_pinned(
      index, [&] { engine = std::make_unique<InferenceEngine>(config); });
}

/// Mean |GTBW - MAP| over the corpus, as bench_fig7_example_inference
/// computes it for one session.
double gtbw_mae(const Corpus& corpus, const std::vector<VeritasResult>& results) {
  double sum = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    sum += corpus.gtbw[i].mean_abs_diff_mbps(results[i].map_trace);
  }
  return sum / double(results.size());
}

/// Untraced: a fresh engine per pass over the corpus (as a new process
/// serving a new fleet). Each pass abducts the corpus at one lane in
/// nproc parts, each pinned to the next CPU in turn between two runs of
/// the calibration loop (see calibrated_pinned), timing every session:
/// the loop infer_batch runs at one lane, one InferenceEngine::infer per
/// session on a shared scratch. At nproc lanes the same passes swung
/// 25-45 % run to run on a shared host. A few nproc-lane passes follow,
/// timed as a detail line and checked bit-identical to one lane.
void measure_abduction(const AbductionShape& shape, const RunConfig& run,
                       Report& report) {
  const Corpus corpus = make_inputs(shape, run);
  const std::span<const veritas::sim::SessionLog> logs(corpus.logs);

  // Reference: one lane. Every later pass must reproduce it bit for bit.
  std::vector<std::uint64_t> reference(logs.size());
  double mae = 0.0;
  {
    const InferenceEngine engine(shape.config);
    const std::vector<VeritasResult> results = engine.infer_batch(logs, 1);
    bool finite = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      reference[i] = fingerprint(results[i]);
      finite = finite && all_finite(results[i]);
    }
    report.gate(finite, "non-finite abduction output");
    mae = gtbw_mae(corpus, results);
  }
  reset_peak_rss();

  const std::size_t part = (logs.size() + run.nproc - 1) / run.nproc;
  report.lanes = 1;  // the gated timing; the detail line uses nproc
  std::vector<double> setup_s, setup_cpu_s;
  std::vector<double> session_ms, session_wall_ms;  ///< CPU and wall time
  /// Sessions per second of each pass: at the reference speed, and in
  /// CPU and wall time.
  std::vector<double> pass_rate, pass_cpu_rate, pass_wall_rate;
  std::size_t sessions = 0, parts = 0;
  std::uint64_t mismatches = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < run.seconds) {
    std::unique_ptr<InferenceEngine> engine;
    const Timing build = build_timing(shape.config, engine, setup_s.size());
    setup_s.push_back(build.reference_s());
    setup_cpu_s.push_back(build.cpu_s);
    Timing pass;
    double pass_reference_s = 0.0;
    for (std::size_t b = 0; b < logs.size(); b += part) {
      double part_cpu_s = 0.0;
      const double calibration = calibrated_pinned(parts++, [&] {
        veritas::core::Ehmm::Scratch scratch;
        for (std::size_t i = b; i < std::min(b + part, logs.size()); ++i) {
          VeritasResult result;
          const Timing t = timed([&] { result = engine->infer(logs[i], scratch); });
          part_cpu_s += t.cpu_s;
          pass.wall_s += t.wall_s;
          session_ms.push_back(t.cpu_s * 1e3);
          session_wall_ms.push_back(t.wall_s * 1e3);
          if (fingerprint(result) != reference[i]) ++mismatches;
          ++sessions;
        }
      });
      pass.cpu_s += part_cpu_s;
      pass_reference_s += at_reference_speed(part_cpu_s, calibration);
    }
    pass_rate.push_back(double(logs.size()) / pass_reference_s);
    pass_cpu_rate.push_back(double(logs.size()) / pass.cpu_s);
    pass_wall_rate.push_back(double(logs.size()) / pass.wall_s);
  }
  report.gate(mismatches == 0, "infer differs from the reference on " +
                                   std::to_string(mismatches) + " sessions");
  // Memory of the timed passes; the nproc-lane check below holds the whole
  // corpus's results at once.
  const double rss = peak_rss_mb();

  std::vector<double> lanes_rate;
  std::uint64_t lane_mismatches = 0;
  for (int i = 0; i < 3; ++i) {
    const InferenceEngine engine(shape.config);
    const auto t0 = Clock::now();
    const std::vector<VeritasResult> results = engine.infer_batch(logs, run.nproc);
    lanes_rate.push_back(double(logs.size()) / seconds_since(t0));
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (fingerprint(results[j]) != reference[j]) ++lane_mismatches;
    }
  }
  report.gate(lane_mismatches == 0,
              "infer_batch at " + std::to_string(run.nproc) +
                  " lanes differs from 1 lane on " +
                  std::to_string(lane_mismatches) + " sessions");
  report.attempted = sessions + 3 * logs.size();
  report.failed = mismatches + lane_mismatches;

  report.e2e("setup_s", median(setup_s), "s", setup_s.size(),
             "median InferenceEngine construction, at the reference CPU speed");
  report.e2e("peak_rss_mb", rss, "MB", 0, "through the 1-lane passes");
  report.e2e("gtbw_mae_mbps", mae, "Mbps", corpus.logs.size(),
             "mean |GTBW - MAP| over the corpus");
  report.e2e("throughput_per_s", median(pass_rate), "1/s", pass_rate.size(),
             "sessions abducted per second at 1 lane and the reference CPU "
             "speed, median over passes");
  report.info("setup_cpu_s", median(setup_cpu_s), "s", setup_cpu_s.size());
  report.info("cpu_throughput_per_s", median(pass_cpu_rate), "1/s",
              pass_cpu_rate.size(), "sessions per CPU-second at 1 lane");
  report.info("wall_throughput_per_s", median(pass_wall_rate), "1/s",
              pass_wall_rate.size(), "sessions per wall-second at 1 lane");
  report.info("latency_p50_ms", median(session_ms), "ms", session_ms.size(),
              "per session, CPU time");
  report.info("latency_tail_ms", percentile(session_ms, shape.tail), "ms",
              session_ms.size(), tail_note(shape.tail, session_ms.size()));
  report.info("wall_latency_p50_ms", median(session_wall_ms), "ms",
              session_wall_ms.size(), "per session, wall time");
  report.info("abduct_sessions_per_s", median(lanes_rate), "1/s", lanes_rate.size(),
              "whole corpus at " + std::to_string(run.nproc) + " lanes, wall time");
  report.info("error_frac", double(report.failed) / double(report.attempted),
              "ratio", report.attempted);
}

struct OneLanePass {
  double seconds = 0.0;
  veritas::core::EstimatorCache::Stats cache;
  std::vector<VeritasResult> results;
};

OneLanePass one_lane_pass(const VeritasConfig& config,
                          std::span<const veritas::sim::SessionLog> logs) {
  const InferenceEngine engine(config);
  OneLanePass pass;
  const auto t0 = Clock::now();
  pass.results = engine.infer_batch(logs, 1);
  pass.seconds = seconds_since(t0);
  pass.cache = engine.estimator_cache()->stats();
  return pass;
}

/// Traced: deterministic work counts at one lane, lane scaling, and the
/// per-session breakdown from spans around Ehmm's public calls.
void trace_abduction(const AbductionShape& shape, const RunConfig& run,
                     Report& report) {
  const Corpus corpus = make_inputs(shape, run);
  const std::span<const veritas::sim::SessionLog> logs(corpus.logs);
  const double n = double(logs.size());

  std::vector<double> builds;
  for (std::size_t i = 0; i < run.nproc; ++i) {
    std::unique_ptr<InferenceEngine> engine;
    builds.push_back(build_timing(shape.config, engine, builds.size()).cpu_s);
  }
  report.layer("core.engine_build_s", median(builds), "s", builds.size(), "CPU time");

  // Work counts at one lane must repeat exactly.
  const OneLanePass first = one_lane_pass(shape.config, logs);
  const OneLanePass second = one_lane_pass(shape.config, logs);
  report.gate(first.cache.hits == second.cache.hits &&
                  first.cache.misses == second.cache.misses &&
                  first.cache.flushes == second.cache.flushes,
              "estimator-cache counts differ between identical 1-lane passes");
  const auto& c = first.cache;
  report.layer("net.estimator_rows_per_session", double(c.misses) / n, "count");
  report.layer("core.estimator_cache.hits", double(c.hits), "count");
  report.layer("core.estimator_cache.misses", double(c.misses), "count");
  report.layer("core.estimator_cache.flushes", double(c.flushes), "count");
  report.layer("core.estimator_cache.hit_ratio",
               double(c.hits) / double(c.hits + c.misses), "ratio");

  const double one_lane_s = std::min(first.seconds, second.seconds);
  std::vector<double> lanes_s;
  for (int i = 0; i < 2; ++i) {
    const InferenceEngine engine(shape.config);
    const auto t0 = Clock::now();
    const auto results = engine.infer_batch(logs, run.nproc);
    lanes_s.push_back(seconds_since(t0));
  }
  const double eff = (n / *std::min_element(lanes_s.begin(), lanes_s.end())) /
                     (double(run.nproc) * n / one_lane_s);
  report.layer("util.thread_pool.scaling_eff", eff, "ratio", 0,
               std::to_string(run.nproc) + " lanes vs 1");

  // Transition work: window deltas beyond the dense A^Δ table.
  const InferenceEngine fresh(shape.config);
  const std::size_t dense = fresh.ehmm().transition().precomputed_powers();
  std::set<std::size_t> distinct;
  std::size_t lookups = 0;
  for (const auto& log : logs) {
    const auto obs = veritas::core::observations_from_log(log);
    for (const std::size_t d : fresh.ehmm().window_deltas(obs)) {
      if (d >= dense) {
        ++lookups;
        distinct.insert(d);
      }
    }
  }
  std::vector<double> power_ms;
  for (const std::size_t d : distinct) {
    const auto t0 = Clock::now();
    fresh.ehmm().transition().power(d);
    power_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.layer("core.transition.overflow_lookups_per_session",
               double(lookups) / n, "count");
  report.layer("core.transition.distinct_overflow_deltas",
               double(distinct.size()), "count");
  report.layer("core.transition.overflow_power_ms", mean(power_ms), "ms",
               power_ms.size(), "TransitionModel::power at first sight");

  // The per-session breakdown, one lane, on a fresh engine.
  const InferenceEngine engine(shape.config);
  const Ehmm& ehmm = engine.ehmm();
  const VeritasConfig& cfg = engine.config();
  Ehmm::Scratch scratch;
  scratch.estimator_cache = engine.estimator_cache();
  std::vector<const double*> rows;
  std::vector<std::shared_ptr<const veritas::core::EstimatorCache::Entry>> refs;
  veritas::math::Matrix log_emission;
  SpanLog spans;
  std::vector<double> session_us, warm_us;
  std::vector<double> vit_total, fb_total;
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const std::int32_t root = spans.begin("session", -1, i);
    const auto obs = veritas::core::observations_from_log(logs[i]);

    std::int32_t s = spans.begin("core.emission_means", root, i);
    ehmm.emission_mean_rows_into(obs, *scratch.estimator_cache,
                                 scratch.estimator_l1, rows, refs);
    spans.end(s);
    const std::int32_t logpdf = spans.begin("math.emission_logpdf", root, i);
    ehmm.emission_log_probs_from_rows_into(obs, rows, log_emission);
    spans.end(logpdf);
    // Calibration: the cached emission pass that viterbi() and
    // forward_backward() each repeat internally, subtracted from them.
    s = spans.begin("calibration.emission_warm", root, i);
    ehmm.emission_mean_rows_into(obs, *scratch.estimator_cache,
                                 scratch.estimator_l1, rows, refs);
    ehmm.emission_log_probs_from_rows_into(obs, rows, log_emission);
    spans.end(s);
    warm_us.push_back(spans.duration_us(s));

    s = spans.begin("math.viterbi", root, i);
    const Ehmm::ViterbiResult vit = ehmm.viterbi(obs, scratch);
    spans.end(s);
    vit_total.push_back(spans.duration_us(s));
    s = spans.begin("math.forward_backward", root, i);
    const Ehmm::ForwardBackwardResult fb = ehmm.forward_backward(obs, scratch);
    spans.end(s);
    fb_total.push_back(spans.duration_us(s));

    s = spans.begin("core.sample_posterior", root, i);
    const double total = obs.back().end_s + cfg.delta_s;
    const veritas::util::Rng rng(cfg.seed);
    std::vector<veritas::trace::BandwidthTrace> samples;
    for (std::size_t k = 0; k < cfg.num_samples; ++k) {
      veritas::util::Rng child = rng.fork(k);
      const auto states =
          ehmm.sample_posterior(vit, fb, scratch, child, cfg.sampler);
      samples.push_back(veritas::core::states_to_trace(
          ehmm.space(), states, obs, cfg.delta_s, total, cfg.interpolation));
    }
    spans.end(s);
    spans.end(root);
    session_us.push_back(spans.duration_us(root));

    // The decomposition must reproduce the fused pass exactly.
    const VeritasResult& ref = first.results[i];
    bool same = samples.size() == ref.samples.size();
    for (std::size_t k = 0; same && k < samples.size(); ++k) {
      Fingerprint a, b;
      add_trace(a, samples[k]);
      add_trace(b, ref.samples[k]);
      same = a.digest() == b.digest();
    }
    for (std::size_t t = 0; same && t < vit.states.size(); ++t) {
      same = ehmm.space().value(vit.states[t]) == ref.map_states_mbps[t];
    }
    if (!same) ++mismatches;
  }
  report.gate(mismatches == 0,
              "span decomposition differs from InferenceEngine::infer on " +
                  std::to_string(mismatches) + " sessions");

  auto self = spans.self_us_by_name();
  const double means = self["core.emission_means"] / n;
  const double logpdf_us = self["math.emission_logpdf"] / n;
  const double warm = mean(warm_us);
  const double vit_self = mean(vit_total) - warm;
  const double fb_self = mean(fb_total) - warm;
  const double sampler = self["core.sample_posterior"] / n;
  report.layer("core.emission_means_us", means, "us", logs.size());
  report.layer("math.emission_logpdf_us", logpdf_us, "us", logs.size());
  report.layer("math.viterbi_us", vit_self, "us", logs.size(),
               "derived: viterbi span minus its cached emission pass");
  report.layer("math.forward_backward_us", fb_self, "us", logs.size(),
               "derived: forward_backward span minus its cached emission pass");
  report.layer("core.sample_posterior_us", sampler, "us", logs.size());

  const double untraced_us = one_lane_s * 1e6 / n;
  report.layer("trace.coverage_frac",
               (means + logpdf_us + vit_self + fb_self + sampler) / untraced_us,
               "ratio", 0, "layer self times / untraced 1-lane infer time");
  report.layer("trace.overhead_frac", (mean(session_us) - untraced_us) / untraced_us,
               "ratio", 0, "traced minus untraced per-session time");
  save_spans(run, spans, report);
  report.attempted = logs.size();
  report.failed = mismatches;
}

AbductionShape fleet_shape() {
  AbductionShape shape;
  shape.corpus = 192;
  shape.tail = 99.0;
  return shape;
}

AbductionShape paused_shape() {
  AbductionShape shape;
  shape.config.epsilon_mbps = 0.25;
  shape.config.max_mbps = 50.0;  // k = 201 states
  shape.corpus = 64;
  shape.tail = 95.0;
  shape.paused = true;
  return shape;
}

}  // namespace

void run_fleet_abduct(const RunConfig& run, Report& report) {
  if (run.traced) {
    trace_abduction(fleet_shape(), run, report);
  } else {
    measure_abduction(fleet_shape(), run, report);
  }
}

void run_paused_wide_grid(const RunConfig& run, Report& report) {
  if (run.traced) {
    trace_abduction(paused_shape(), run, report);
  } else {
    measure_abduction(paused_shape(), run, report);
  }
}

namespace {

constexpr std::size_t kTrainSessions = 48;
/// Sessions the trained model is scored on (the training ones first).
constexpr std::size_t kScoredSessions = 192;
constexpr double kTrainTail = 75.0;

std::uint64_t fingerprint(const veritas::core::BaumWelchResult& r) {
  Fingerprint fp;
  const auto& a = r.transition.matrix();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) fp.value(a(i, j));
  }
  const auto u = r.transition.initial();
  fp.doubles(u.data(), u.size());
  fp.value(r.sigma_mbps);
  fp.doubles(r.log_likelihoods.data(), r.log_likelihoods.size());
  return fp.digest();
}

veritas::core::BaumWelchResult train(
    const InferenceEngine& engine,
    const std::vector<std::vector<veritas::core::ChunkObservation>>& obs,
    std::size_t lanes) {
  veritas::core::BaumWelchConfig config;
  config.num_threads = lanes;
  return veritas::core::baum_welch_train(engine.ehmm(), obs, config);
}

}  // namespace

void run_fleet_train(const RunConfig& run, Report& report) {
  const VeritasConfig config;
  const Corpus corpus = fleet_corpus(kScoredSessions, run.seed, run.nproc);
  std::vector<std::vector<veritas::core::ChunkObservation>> scored;
  for (const auto& log : corpus.logs) {
    scored.push_back(veritas::core::observations_from_log(log));
  }
  const std::vector<std::vector<veritas::core::ChunkObservation>> obs(
      scored.begin(), scored.begin() + kTrainSessions);
  const double n = double(obs.size());

  // Reference: one lane. Every timed call must reproduce it bit for bit.
  const InferenceEngine base(config);
  auto t0 = Clock::now();
  const veritas::core::BaumWelchResult reference = train(base, obs, 1);
  const double one_lane_s = seconds_since(t0);
  const std::uint64_t reference_fp = fingerprint(reference);
  report.gate(std::isfinite(reference.log_likelihoods.back()),
              "non-finite training log-likelihood");

  if (run.traced) {
    const veritas::core::BaumWelchResult again = train(base, obs, 1);
    report.gate(again.iterations == reference.iterations &&
                    fingerprint(again) == reference_fp,
                "EM iterations differ between identical 1-lane runs");
    t0 = Clock::now();
    train(base, obs, run.nproc);
    const double lanes_s = seconds_since(t0);
    SpanLog spans;
    const std::int32_t s = spans.begin("core.baum_welch", -1, 0);
    const auto traced = train(base, obs, run.nproc);
    spans.end(s);
    const double traced_s = spans.duration_us(s) / 1e6;
    report.gate(fingerprint(traced) == reference_fp,
                "baum_welch_train differs across lane counts");
    const double iterations = double(reference.iterations);
    report.layer("core.baum_welch.iterations", iterations, "count");
    report.layer("core.baum_welch.s_per_iteration", one_lane_s / iterations, "s",
                 1, "1 lane");
    report.layer("util.thread_pool.scaling_eff",
                 one_lane_s / (double(run.nproc) * lanes_s), "ratio", 0,
                 std::to_string(run.nproc) + " lanes vs 1");
    report.layer("trace.coverage_frac", traced_s / lanes_s, "ratio", 0,
                 "one span around baum_welch_train / untraced time");
    report.layer("trace.overhead_frac", (traced_s - lanes_s) / lanes_s, "ratio");
    save_spans(run, spans, report);
    report.attempted = 3;
    return;
  }

  // Accuracy of the trained model: MAP of each session under it.
  double mae = 0.0;
  {
    const Ehmm& initial = base.ehmm();
    const Ehmm trained(initial.space(), reference.transition,
                       veritas::core::EmissionModel(reference.sigma_mbps,
                                                    config.tcp, config.estimator),
                       config.delta_s);
    for (std::size_t i = 0; i < scored.size(); ++i) {
      const auto vit = trained.viterbi(scored[i]);
      const auto map = veritas::core::states_to_trace(
          trained.space(), vit.states, scored[i], config.delta_s,
          scored[i].back().end_s + config.delta_s, config.interpolation);
      mae += corpus.gtbw[i].mean_abs_diff_mbps(map);
    }
    mae /= double(scored.size());
  }
  report.gate(fingerprint(train(base, obs, run.nproc)) == reference_fp,
              "baum_welch_train at " + std::to_string(run.nproc) +
                  " lanes differs from 1 lane");
  reset_peak_rss();

  // Timed at one lane, pinned to each CPU in turn: multi-lane EM meets a
  // barrier every iteration, which on a shared host made its wall time
  // swing several times more than the work it measures. Lane scaling is
  // the traced run's util.thread_pool.scaling_eff.
  report.lanes = 1;
  std::vector<double> setup_s, setup_cpu_s;
  std::vector<double> train_reference_ms, train_ms, train_wall_ms;
  std::uint64_t mismatches = 0;
  const auto start = Clock::now();
  // Whole rotations only: one call pinned to each CPU.
  while (seconds_since(start) < run.seconds || train_ms.size() % run.nproc != 0) {
    std::unique_ptr<InferenceEngine> engine;
    const Timing build = build_timing(config, engine, setup_s.size());
    setup_s.push_back(build.reference_s());
    setup_cpu_s.push_back(build.cpu_s);
    std::optional<veritas::core::BaumWelchResult> trained;
    const Timing t =
        timed_pinned(train_ms.size(), [&] { trained = train(*engine, obs, 1); });
    train_reference_ms.push_back(t.reference_s() * 1e3);
    train_ms.push_back(t.cpu_s * 1e3);
    train_wall_ms.push_back(t.wall_s * 1e3);
    if (fingerprint(*trained) != reference_fp) ++mismatches;
  }
  report.gate(mismatches == 0, "baum_welch_train differs between identical calls");
  report.attempted = train_ms.size();
  report.failed = mismatches;
  const double session_iterations = n * double(reference.iterations);
  const double reference_ms = median(cycle_means(train_reference_ms, run.nproc));
  const double call_ms = median(cycle_means(train_ms, run.nproc));
  report.e2e("setup_s", median(setup_s), "s", setup_s.size(),
             "median InferenceEngine construction (the initial model), at the "
             "reference CPU speed");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("gtbw_mae_mbps", mae, "Mbps", scored.size(),
             "mean |GTBW - MAP| under the trained model");
  report.e2e("throughput_per_s", session_iterations / (reference_ms / 1e3), "1/s",
             train_ms.size(),
             "session E-steps per second at 1 lane and the reference CPU speed");
  report.info("setup_cpu_s", median(setup_cpu_s), "s", setup_cpu_s.size());
  report.info("cpu_throughput_per_s", session_iterations / (call_ms / 1e3), "1/s",
              train_ms.size(), "session E-steps per CPU-second");
  report.info("latency_p50_ms", call_ms, "ms", train_ms.size(),
             "per 1-lane baum_welch_train call over " +
                 std::to_string(obs.size()) +
                 " sessions, CPU time; median of the means over each CPU");
  report.info("latency_tail_ms", percentile(train_ms, kTrainTail), "ms",
              train_ms.size(), tail_note(kTrainTail, train_ms.size()));
  report.info("wall_latency_p50_ms", median(train_wall_ms), "ms",
              train_wall_ms.size(), "per call, wall time");
  report.info("train_s", reference_ms / 1e3, "s", train_ms.size(),
              "at the reference CPU speed");
  report.info("error_frac", double(mismatches) / double(train_ms.size()),
              "ratio", train_ms.size());
}

}  // namespace perfbench
