// serve_open_loop: Poisson arrivals at fixed offered rates against a
// two-shard VeritasService — interactive next-chunk predictions with a
// deadline, batch-priority abductions, a share of repeats that hit the
// result cache, and a periodic swap_shard that invalidates one shard's
// entries. Each request is timed from its due time, so a stalled
// generator or a blocked submit counts against the requests behind it.
//
// The offered rates are constants of the benchmark, never derived from a
// capacity measured in the same run: a faster build faces the same load.
//
// The gated figures come from the reference step: the service's CPU time
// per served query (rescaled to the reference CPU speed), and peak memory.
// Its due-time latencies and the highest passing rate are printed as
// detail lines: on a shared virtual host every request waits for a lane's
// vCPU to be scheduled, and that wait swung them by half from run to run.
#include <array>
#include <limits>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "core/veritas.hpp"
#include "inputs.hpp"
#include "service/veritas_service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using veritas::core::VeritasConfig;
using veritas::service::InferenceResult;
using veritas::service::QueryKind;
using veritas::service::VeritasService;
using Outcome = veritas::Expected<InferenceResult>;

constexpr std::size_t kPool = 192;
/// Offered load (queries/s). The gated figures and the latencies are taken
/// at the reference rate; the ladder above it finds the highest rate that
/// meets the limit.
constexpr double kReferenceQps = 1000.0;
/// 9 percent apart: a binary search settles in four steps.
constexpr std::array<double, 16> kLadderQps{
    2000, 2180, 2376, 2590, 2823, 3077, 3354, 3656, 3985, 4344,
    4735, 5161, 5625, 6132, 6683, 7285};
constexpr double kLatencyLimitMs = 100.0;  ///< p99 limit for a passing step
constexpr double kWarmupS = 0.5;          ///< at the reference rate, unrecorded
/// Every step is made of windows of kWindowS. A ladder step has kWindows
/// and passes when most of them do, so one burst of host interference
/// cannot decide it. The reference step takes kReferenceShare of the run
/// and reports the median over its windows.
constexpr double kWindowS = 1.0;
constexpr std::size_t kWindows = 3;
constexpr double kReferenceShare = 0.4;
/// During the reference step the generator runs the calibration loop on
/// the next CPU this often: the lanes' CPU time is rescaled by the speed
/// of the CPUs they ran on, measured while they ran.
constexpr double kCalibrateEveryS = 0.1;
/// One swap in the middle of every window.
constexpr double kSwapEveryS = kWindowS;
constexpr double kRepeatShare = 0.2;       ///< resubmit a recent query
constexpr double kInteractiveShare = 0.6;  ///< of the fresh queries
constexpr double kInteractiveDeadlineMs = 1000.0;
constexpr std::size_t kRecentWindow = 64;
/// Outstanding requests at which a step stops offering load: the
/// service is past capacity and the step has failed.
constexpr std::size_t kAbortBacklog = 200;
/// Outstanding requests above which a window's backlog counts as grown.
constexpr double kBacklogLimit = 64.0;
/// Every n-th completed payload is re-derived on a reference engine.
constexpr std::size_t kCheckEvery = 40;
/// Payloads checked right after each swap.
constexpr std::size_t kCheckAfterSwap = 2;
const char* const kShards[2] = {"paper", "sigma"};

/// One scheduled request; everything the program sees is derived from it.
struct Spec {
  double at_s = 0.0;
  QueryKind kind = QueryKind::kPredictSequence;
  int shard = 0;
  std::size_t log = 0;
  std::size_t prefix = 0;      ///< chunks of the log seen so far (predictions)
  std::uint64_t seed_xor = 0;  ///< abductions: distinct per fresh query
};

std::vector<Spec> schedule(double qps, double duration_s, std::uint64_t seed,
                           std::size_t chunks) {
  veritas::util::Rng rng(seed);
  std::vector<Spec> specs;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / qps;
    if (t >= duration_s) break;
    Spec spec;
    if (specs.size() > 0 && rng.uniform() < kRepeatShare) {
      const std::size_t back = std::size_t(rng.uniform_int(
          1, std::int64_t(std::min(specs.size(), kRecentWindow))));
      spec = specs[specs.size() - back];
    } else {
      spec.kind = rng.uniform() < kInteractiveShare ? QueryKind::kPredictSequence
                                                    : QueryKind::kAbduction;
      spec.shard = int(rng.uniform_int(0, 1));
      spec.log = std::size_t(rng.uniform_int(0, kPool - 1));
      spec.prefix = std::size_t(rng.uniform_int(60, std::int64_t(chunks)));
      spec.seed_xor = rng();
    }
    spec.at_s = t;
    specs.push_back(spec);
  }
  return specs;
}

VeritasConfig shard_config(int shard, bool alternate) {
  VeritasConfig config;
  if (shard == 1) config.sigma_mbps = alternate ? 0.3 : 0.25;
  return config;
}

/// The service plus the config behind every epoch it has served.
struct Fleet {
  std::unique_ptr<VeritasService> service;
  std::map<std::uint64_t, VeritasConfig> config_of_epoch;
  bool alternate = false;
  std::vector<double> swap_ms;

  explicit Fleet(std::size_t lanes) {
    veritas::service::ServiceOptions options;
    options.num_threads = lanes;
    options.admission_timeout = std::chrono::milliseconds(1000);
    service = std::make_unique<VeritasService>(options);
    for (int s = 0; s < 2; ++s) {
      const VeritasConfig config = shard_config(s, false);
      config_of_epoch[service->add_shard(kShards[s], config)] = config;
    }
  }
  void swap() {
    alternate = !alternate;
    const VeritasConfig config = shard_config(1, alternate);
    const auto t0 = Clock::now();
    const std::uint64_t epoch = service->swap_shard(kShards[1], config);
    swap_ms.push_back(seconds_since(t0) * 1e3);
    config_of_epoch[epoch] = config;
  }
};

veritas::service::Query make_query(const Spec& spec, const Corpus& pool) {
  veritas::service::Query q;
  q.shard = kShards[spec.shard];
  q.kind = spec.kind;
  if (spec.kind == QueryKind::kPredictSequence) {
    q.log = pool.logs[spec.log].prefix(spec.prefix);
    q.options.priority = veritas::service::Priority::kInteractive;
    q.options.deadline =
        Clock::now() + std::chrono::microseconds(
                           std::int64_t(kInteractiveDeadlineMs * 1e3));
  } else {
    q.log = pool.logs[spec.log];
    q.seed_xor = spec.seed_xor;
    q.options.priority = veritas::service::Priority::kBatch;
  }
  return q;
}

/// A payload kept for the bit-identity check.
struct Sample {
  Spec spec;
  InferenceResult result;
};

struct StepResult {
  double qps = 0.0;
  std::size_t windows = 0;
  std::size_t offered = 0;
  std::vector<double> latency_ms;  ///< every offered request; +inf = failed
  std::size_t errors = 0;
  std::vector<double> lateness_ms;
  std::vector<double> submit_us;
  std::vector<double> outstanding;  ///< sampled at each arrival
  std::vector<double> queue_depth;  ///< traced only
  std::size_t backlog_end = 0;
  bool aborted = false;
  std::vector<Sample> samples;
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
  std::size_t windows_passed = 0;
  /// CPU time of the service over the step and its drain: the process's,
  /// minus the generator thread's outside its calls into the service
  /// (submit, which completes cache hits, and swap_shard).
  double service_cpu_s = 0.0;
  std::vector<double> calibration_s;  ///< calibrated steps only

  double p(double q) const { return percentile(latency_ms, q); }
  bool passes() const { return !aborted && 2 * windows_passed > windows; }

  /// Per-window verdicts: p99 at most the limit and no more than
  /// kBacklogLimit requests outstanding at the window's last arrival
  /// (past capacity the backlog grows with every arrival, while the
  /// transient after a swap drains within tens of milliseconds).
  void judge(const std::vector<Spec>& specs) {
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<double> latency;
      double backlog = 0.0;
      for (std::size_t i = 0; i < outstanding.size(); ++i) {
        if (std::size_t(specs[i].at_s / kWindowS) != w) continue;
        latency.push_back(latency_ms[i]);
        backlog = outstanding[i];
      }
      const double p99 = percentile(latency, 99.0);
      window_p50_ms.push_back(percentile(latency, 50.0));
      window_p99_ms.push_back(p99);
      if (!latency.empty() && p99 <= kLatencyLimitMs && backlog <= kBacklogLimit) {
        ++windows_passed;
      }
    }
  }
};

struct Pending {
  std::size_t spec = 0;
  Clock::time_point due;
  std::future<Outcome> future;
  bool check = false;
};

StepResult run_step(Fleet& fleet, const Corpus& pool,
                    const std::vector<Spec>& specs, double qps, std::size_t windows,
                    bool traced, SpanLog* spans, std::uint64_t& query_id,
                    bool calibrate = false) {
  StepResult step;
  step.qps = qps;
  step.windows = windows;
  const double process_cpu0 = process_cpu_s();
  const double generator_cpu0 = thread_cpu_s();
  double in_service_cpu = 0.0;  ///< generator CPU inside service calls
  step.offered = specs.size();
  step.latency_ms.assign(specs.size(), std::numeric_limits<double>::infinity());
  std::vector<Pending> pending;
  std::size_t check_after_swap = 0;

  auto finish = [&](Pending& p, Clock::time_point when) {
    const Outcome outcome = p.future.get();
    if (outcome.ok()) {
      step.latency_ms[p.spec] =
          std::chrono::duration<double, std::milli>(when - p.due).count();
      if (p.check) step.samples.push_back({specs[p.spec], outcome.value()});
    } else {
      ++step.errors;
    }
  };
  auto poll = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(pending[i], Clock::now());
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  // Swaps fall at the same offsets in every step, so steps compare.
  const auto swap_every = std::chrono::microseconds(std::int64_t(kSwapEveryS * 1e6));
  auto next_swap = start + swap_every / 2;
  const auto calibrate_every =
      std::chrono::microseconds(std::int64_t(kCalibrateEveryS * 1e6));
  auto next_calibration = start;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto due = start + std::chrono::nanoseconds(
                                 std::int64_t(specs[i].at_s * 1e9));
    while (true) {
      poll();
      const auto now = Clock::now();
      if (now >= due) break;
      if (due - now > std::chrono::microseconds(300)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const auto now = Clock::now();
    if (now >= next_swap) {
      // In band, as an operator's control plane would: the build delays
      // the arrivals behind it, which their due-time latency records.
      const double cpu0 = thread_cpu_s();
      fleet.swap();
      in_service_cpu += thread_cpu_s() - cpu0;
      check_after_swap = kCheckAfterSwap;
      next_swap += swap_every;
    }
    if (calibrate && now >= next_calibration) {
      const Pin pin(step.calibration_s.size());
      step.calibration_s.push_back(calibration_cpu_s());
      next_calibration += calibrate_every;
    }
    step.lateness_ms.push_back(
        std::chrono::duration<double, std::milli>(now - due).count());
    step.outstanding.push_back(double(pending.size()));
    if (traced) step.queue_depth.push_back(double(fleet.service->stats().queue_depth));
    if (pending.size() >= kAbortBacklog) {
      step.aborted = true;
      break;
    }
    auto query = make_query(specs[i], pool);
    std::int32_t span = -1;
    if (spans) span = spans->begin("service.submit", -1, query_id++);
    const double cpu0 = thread_cpu_s();
    const auto t0 = Clock::now();
    Pending p{i, due, fleet.service->submit(std::move(query)), false};
    const auto t1 = Clock::now();
    in_service_cpu += thread_cpu_s() - cpu0;
    if (spans) spans->end(span);
    step.submit_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    p.check = (i % kCheckEvery == 0) || (check_after_swap > 0 && specs[i].shard == 1);
    if (p.check && specs[i].shard == 1 && check_after_swap > 0) --check_after_swap;
    pending.push_back(std::move(p));
  }
  step.backlog_end = pending.size();
  // Drain: the step's requests still count once they resolve.
  while (!pending.empty()) {
    poll();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  step.service_cpu_s = (process_cpu_s() - process_cpu0) -
                       (thread_cpu_s() - generator_cpu0) + in_service_cpu;
  step.offered = step.outstanding.size();  // an abandoned step stops early
  step.judge(specs);
  return step;
}

std::uint64_t fingerprint_predictions(
    const std::vector<veritas::core::NextChunkPrediction>& predictions) {
  Fingerprint fp;
  for (const auto& p : predictions) {
    fp.value(p.expected_gtbw_mbps);
    fp.value(p.throughput_mbps);
    fp.value(p.download_time_s);
  }
  return fp.digest();
}

/// Re-derives sampled payloads on engines built from the config of the
/// epoch that answered; returns the number that differ. Also times the
/// re-derivations: `predict_us` per prediction, and `compute_us` per
/// payload (0 for a cache hit) as an estimate of the lanes' work.
std::size_t check_samples(const Fleet& fleet, const Corpus& pool,
                          const std::vector<Sample>& samples,
                          std::vector<double>& predict_us,
                          std::vector<double>& compute_us) {
  std::map<double, std::unique_ptr<veritas::core::Veritas>> engines;
  std::size_t mismatches = 0;
  veritas::core::Ehmm::Scratch scratch;
  for (const Sample& s : samples) {
    const VeritasConfig& config = fleet.config_of_epoch.at(s.result.shard_epoch);
    auto& engine = engines[config.sigma_mbps];
    if (!engine) engine = std::make_unique<veritas::core::Veritas>(config);
    const auto t0 = Clock::now();
    if (s.spec.kind == QueryKind::kAbduction) {
      const auto reference = engine->engine().infer_with_seed(
          pool.logs[s.spec.log], scratch, config.seed ^ s.spec.seed_xor);
      compute_us.push_back(s.result.cache_hit ? 0.0 : seconds_since(t0) * 1e6);
      if (!s.result.abduction ||
          fingerprint(reference) != fingerprint(*s.result.abduction)) {
        ++mismatches;
      }
    } else {
      const auto log = pool.logs[s.spec.log].prefix(s.spec.prefix);
      const auto reference = engine->predict_sequence(log);
      predict_us.push_back(seconds_since(t0) * 1e6);
      compute_us.push_back(s.result.cache_hit ? 0.0 : predict_us.back());
      if (!s.result.predictions ||
          fingerprint_predictions(reference) !=
              fingerprint_predictions(*s.result.predictions)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Mean |GTBW - MAP| over every log of the pool, from an engine with the
/// paper shard's config (the MAP does not depend on the sampling seed, and
/// the payload check holds the service to the same bits).
double paper_shard_mae(const Corpus& pool) {
  const veritas::core::InferenceEngine engine(shard_config(0, false));
  double sum = 0.0;
  for (std::size_t log = 0; log < pool.logs.size(); ++log) {
    sum += pool.gtbw[log].mean_abs_diff_mbps(engine.infer(pool.logs[log]).map_trace);
  }
  return sum / double(pool.logs.size());
}

std::uint64_t step_seed(std::uint64_t seed, std::size_t step) {
  return veritas::util::Rng(seed ^ 0x5e77eULL).fork(step)();
}

}  // namespace

void run_serve_open_loop(const RunConfig& run, Report& report) {
  const Corpus pool = fleet_corpus(kPool, run.seed, run.nproc);
  const std::size_t chunks = bench_video().num_chunks();
  const std::size_t lanes = std::max<std::size_t>(1, run.nproc - 1);
  report.lanes = lanes;
  report.generator_threads = 1;
  const std::size_t reference_windows = std::max<std::size_t>(
      kWindows, std::size_t(std::lround(run.seconds * kReferenceShare / kWindowS)));
  const std::vector<Spec> warmup =
      schedule(kReferenceQps, kWarmupS, step_seed(run.seed, 0), chunks);
  const std::vector<Spec> reference = schedule(
      kReferenceQps, double(reference_windows) * kWindowS, step_seed(run.seed, 1),
      chunks);
  reset_peak_rss();

  // Set-up is timed on throwaway services: their lanes inherit the pin.
  std::vector<double> setup_s, setup_cpu_s;
  for (std::size_t i = 0; i < 21; ++i) {
    std::unique_ptr<Fleet> throwaway;
    const Timing t =
        timed_pinned(i, [&] { throwaway = std::make_unique<Fleet>(lanes); });
    setup_s.push_back(t.reference_s());
    setup_cpu_s.push_back(t.cpu_s);
  }
  const auto fleet = std::make_unique<Fleet>(lanes);
  std::uint64_t query_id = 0;
  std::vector<StepResult> steps;
  std::optional<StepResult> traced_step;
  // The highest ladder index known to pass, and the lowest known to fail.
  std::ptrdiff_t pass = -1;
  std::ptrdiff_t fail = std::ptrdiff_t(kLadderQps.size());
  double rss = 0.0;
  {
    const auto start = Clock::now();
    run_step(*fleet, pool, warmup, kReferenceQps, 1, false, nullptr, query_id);
    steps.push_back(run_step(*fleet, pool, reference, kReferenceQps,
                             reference_windows, false, nullptr, query_id, true));
    // The gated memory figure is taken at the reference rate: past
    // capacity the ladder's backlog, and so the memory it holds, depends
    // on how fast the host ran.
    rss = peak_rss_mb();
    if (run.traced) {
      // Same rate, fresh arrivals: replaying `reference` would turn its
      // queries into result-cache hits.
      SpanLog spans;
      traced_step = run_step(
          *fleet, pool,
          schedule(kReferenceQps, kWindows * kWindowS, step_seed(run.seed, 100),
                   chunks),
          kReferenceQps, kWindows, true, &spans, query_id);
      save_spans(run, spans, report);
    } else if (steps.front().passes()) {
      // Binary search over the fixed ladder for the highest passing rate.
      while (fail - pass > 1 && seconds_since(start) < run.seconds) {
        const std::ptrdiff_t mid = (pass + fail) / 2;
        const double qps = kLadderQps[std::size_t(mid)];
        steps.push_back(run_step(
            *fleet, pool,
            schedule(qps, kWindows * kWindowS,
                     step_seed(run.seed, 2 + std::size_t(mid)), chunks),
            qps, kWindows, false, nullptr, query_id));
        (steps.back().passes() ? pass : fail) = mid;
      }
    }
  }

  const auto stats = fleet->service->stats();
  report.gate(stats.reconciled(), "ServiceStats::reconciled() fails at quiescence");
  std::vector<Sample> samples;
  std::uint64_t offered = 0, errors = 0;
  for (const auto* step : {&steps.front(), traced_step ? &*traced_step : nullptr}) {
    if (!step) continue;
    samples.insert(samples.end(), step->samples.begin(), step->samples.end());
  }
  for (const StepResult& step : steps) {
    offered += step.offered;
    errors += step.errors;
    if (!run.traced && &step != &steps.front()) {
      samples.insert(samples.end(), step.samples.begin(), step.samples.end());
    }
  }
  std::vector<double> predict_us, compute_us;
  const std::size_t mismatches =
      check_samples(*fleet, pool, samples, predict_us, compute_us);
  report.gate(mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(samples.size()) +
                  " sampled service payloads differ from a reference engine");
  report.attempted = offered;
  report.failed = errors + mismatches;

  const StepResult& ref = steps.front();
  for (const StepResult& step : steps) {
    std::string windows;
    for (const double p99 : step.window_p99_ms) {
      windows += " " + std::to_string(int(std::min(p99, 1e6)));
    }
    report.info("step_" + std::to_string(int(step.qps)) + "_p99_ms", step.p(99.0),
                "ms", step.offered,
                std::string(step.passes() ? "pass" : "FAIL") + " windows_p99_ms" +
                    windows + " backlog_end=" + std::to_string(step.backlog_end) +
                    (step.aborted ? " aborted" : "") + " lateness_p99_ms=" +
                    std::to_string(percentile(step.lateness_ms, 99.0)));
  }

  if (run.traced) {
    const StepResult& t = *traced_step;
    const double lookups = double(stats.cache_hits + stats.cache_misses);
    report.layer("service.result_cache_hit_ratio", double(stats.cache_hits) / lookups,
                 "ratio");
    report.layer("service.submit_block_us", percentile(t.submit_us, 99.0), "us",
                 t.submit_us.size(), "p99");
    const double depth = mean(t.queue_depth);
    report.layer("service.queue_depth_mean", depth, "count", t.queue_depth.size());
    report.layer("service.queue_depth_p99", percentile(t.queue_depth, 99.0), "count",
                 t.queue_depth.size());
    report.layer("service.queue_wait_ms_est", depth / kReferenceQps * 1e3, "ms", 0,
                 "Little's law: mean depth / arrival rate");
    double p50 = 0.0, p99 = 0.0;
    for (const auto& shard : fleet->service->shard_stats()) {
      p50 = std::max(p50, shard.latency_p50_us);
      p99 = std::max(p99, shard.latency_p99_us);
    }
    report.layer("service.compute_p50_us", p50, "us", 0, "ShardStats, worst shard");
    report.layer("service.compute_p99_us", p99, "us", 0, "ShardStats, worst shard");
    report.layer("service.swap_ms", median(fleet->swap_ms), "ms", fleet->swap_ms.size());
    report.layer("service.outcomes.rejected", double(stats.rejected), "count");
    report.layer("service.outcomes.shed", double(stats.shed), "count");
    report.layer("service.outcomes.timed_out", double(stats.timed_out), "count");
    report.layer("service.outcomes.degraded", double(stats.degraded), "count");
    report.layer("service.outcomes.failed", double(stats.failed), "count");
    report.layer("service.predict_us", median(predict_us), "us", predict_us.size(),
                 "Veritas::predict_sequence on a reference engine");
    report.layer("load.lateness_ms_p99", percentile(t.lateness_ms, 99.0), "ms",
                 t.lateness_ms.size());
    report.layer("load.backlog_end", double(t.backlog_end), "count");
    const double latency_us = mean(t.latency_ms) * 1e3;
    report.layer("trace.coverage_frac",
                 (mean(t.submit_us) + depth / kReferenceQps * 1e6 + mean(compute_us)) /
                     latency_us,
                 "ratio", 0,
                 "estimated: submit + queue wait + re-derived compute over latency");
    report.layer("trace.overhead_frac", (t.p(50.0) - ref.p(50.0)) / ref.p(50.0),
                 "ratio", 0, "traced vs untraced p50 at the reference rate");
    return;
  }

  const bool converged = fail - pass <= 1;
  const double max_qps = pass >= 0 ? kLadderQps[std::size_t(pass)]
                         : steps.front().passes() ? kReferenceQps
                                                  : 0.0;
  const std::size_t served = ref.offered - ref.errors;
  report.e2e("setup_s", median(setup_s), "s", setup_s.size(),
             "median VeritasService construction + two add_shard, at the "
             "reference CPU speed");
  report.e2e("peak_rss_mb", rss, "MB", 0, "through the reference step");
  report.e2e("gtbw_mae_mbps", paper_shard_mae(pool), "Mbps", kPool,
             "mean |GTBW - MAP| over the pool, paper-shard config");
  report.e2e("throughput_per_s",
             double(served) /
                 at_reference_speed(ref.service_cpu_s, mean(ref.calibration_s)),
             "1/s", served,
             "queries served per second of busy service CPU at the reference "
             "CPU speed, offered 1000 q/s");
  report.info("setup_cpu_s", median(setup_cpu_s), "s", setup_cpu_s.size());
  report.info("cpu_throughput_per_s", double(served) / ref.service_cpu_s, "1/s",
              served, "queries served per CPU-second of the service");
  report.info("latency_p50_ms", median(ref.window_p50_ms), "ms", ref.offered,
             "due time to resolved future at the reference rate: median over " +
                 std::to_string(ref.windows) + " windows of their p50");
  report.info("latency_tail_ms", median(ref.window_p99_ms), "ms", ref.offered,
              "median over " + std::to_string(ref.windows) +
                  " windows of their p99, at the reference rate");
  report.info("serve_p50_ms", ref.p(50.0), "ms", ref.offered);
  report.info("serve_p99_ms", ref.p(99.0), "ms", ref.offered,
              tail_note(99.0, ref.offered));
  report.info("serve_max_qps", max_qps, "1/s", steps.size(),
              std::string("highest fixed offered rate whose windows mostly meet "
                          "p99 <= 100 ms without backlog growth") +
                  (converged ? "" : " (search cut by the time limit)"));
  report.info("error_frac", double(report.failed) / double(offered), "ratio", offered);
}

}  // namespace perfbench
