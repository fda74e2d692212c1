// whatif_sweep: a closed-loop operator asking a service-backed
// CounterfactualEngine about every candidate setting for one recorded
// log at a time. Abduction runs once per (log, seed) visit and the other
// eleven settings hit the result cache, so the time goes to replays.
#include <memory>

#include "core/baseline.hpp"
#include "inputs.hpp"
#include "query/counterfactual.hpp"
#include "service/veritas_service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using veritas::query::CounterfactualEngine;
using veritas::query::Setting;
using veritas::query::WhatIfPrediction;
using veritas::service::VeritasService;
using veritas::sim::QoeMetrics;

constexpr double kRttS = 0.08;
constexpr std::size_t kLogs = 256;
/// Logs whose first visit is scored against the oracle replay.
constexpr std::size_t kScoredLogs = 16;
constexpr double kTail = 95.0;
/// Visits whose answers are re-derived on a local engine (bit-identity).
constexpr std::size_t kCheckedVisits = 2;
/// Peak memory is read after this many visits: every visit adds its
/// abduction to the result cache, so a reading at the end of the run
/// would grow with how fast the host ran.
constexpr std::size_t kRssVisits = 32;
/// Visits replayed one by one in the traced run.
constexpr std::size_t kTracedVisits = 4;
const char* const kShard = "paper";

std::vector<Setting> sweep() {
  std::vector<Setting> settings;
  for (const char* abr : {"bba", "bola", "mpc", "rate_based"}) {
    for (const double buffer : {5.0, 15.0, 30.0}) {
      Setting s;
      s.abr = abr;
      s.buffer_capacity_s = buffer;
      settings.push_back(s);
    }
  }
  return settings;
}

void add_qoe(Fingerprint& fp, const QoeMetrics& m) {
  fp.value(m.mean_ssim);
  fp.value(m.mean_ssim_db);
  fp.value(m.rebuffer_ratio_pct);
  fp.value(m.avg_bitrate_mbps);
  fp.value(m.startup_delay_s);
  fp.value(double(m.quality_switches));
}

std::uint64_t fingerprint(const WhatIfPrediction& p) {
  Fingerprint fp;
  add_qoe(fp, p.baseline);
  for (const QoeMetrics& m : p.veritas_samples) add_qoe(fp, m);
  add_qoe(fp, p.veritas_low);
  add_qoe(fp, p.veritas_high);
  return fp.digest();
}

bool finite(const WhatIfPrediction& p) {
  return std::isfinite(p.veritas_low.rebuffer_ratio_pct) &&
         std::isfinite(p.veritas_high.rebuffer_ratio_pct) &&
         std::isfinite(p.veritas_low.mean_ssim) &&
         std::isfinite(p.veritas_high.mean_ssim);
}

std::shared_ptr<VeritasService> make_service(std::size_t lanes) {
  veritas::service::ServiceOptions options;
  options.num_threads = lanes;
  auto service = std::make_shared<VeritasService>(options);
  service->add_shard(kShard, veritas::core::VeritasConfig{});
  return service;
}

/// One visit = one (log, seed): the log is logs[v % kLogs], seed v.
/// A client answers every setting of its visit before taking the next.
struct Answer {
  std::size_t visit = 0;
  std::size_t setting = 0;
  double latency_ms = 0.0;
  double low_rebuffer = 0.0;
  double high_rebuffer = 0.0;
  std::uint64_t digest = 0;
};

void trace_whatif(const RunConfig& run, const Corpus& corpus, Report& report);

}  // namespace

void run_whatif_sweep(const RunConfig& run, Report& report) {
  const Corpus corpus = fleet_corpus(kLogs, run.seed, run.nproc);
  if (run.traced) {
    trace_whatif(run, corpus, report);
    return;
  }
  const std::vector<Setting> settings = sweep();
  report.lanes = 1;
  report.generator_threads = 1;
  reset_peak_rss();

  // Set-up is timed on throwaway services: their lanes inherit the pin.
  std::vector<double> setup_s, setup_cpu_s;
  for (std::size_t i = 0; i < 21; ++i) {
    std::shared_ptr<VeritasService> throwaway;
    const Timing t = timed_pinned(i, [&] { throwaway = make_service(1); });
    setup_s.push_back(t.reference_s());
    setup_cpu_s.push_back(t.cpu_s);
  }
  const std::shared_ptr<VeritasService> service = make_service(1);
  const CounterfactualEngine engine(service, kShard, kRttS);

  // One closed-loop client, each visit pinned to the next CPU in turn
  // between two runs of the calibration loop (see calibrated_pinned):
  // with three concurrent clients the answer rate swung 20-30 % run to run
  // on a shared host. Concurrency on the service is serve_open_loop's to
  // measure. Times are process CPU time, so the service lane's abductions
  // count.
  std::vector<Answer> answers;
  std::vector<double> visit_s, visit_cpu_s, visit_wall_s, answer_wall_ms;
  std::uint64_t non_finite = 0;
  double rss = 0.0;
  const auto start = Clock::now();
  // Whole rotations only: one visit pinned to each CPU.
  for (std::size_t v = 0;
       seconds_since(start) < run.seconds || v % run.nproc != 0 || v < kRssVisits;
       ++v) {
    const auto& log = corpus.logs[v % kLogs];
    Timing visit;
    visit.calibration_s = calibrated_pinned(v, [&] {
      for (std::size_t s = 0; s < settings.size(); ++s) {
        WhatIfPrediction p;
        const Timing t = timed(
            [&] { p = engine.predict_whatif(log, bench_video(), settings[s], v); });
        visit.wall_s += t.wall_s;
        visit.cpu_s += t.cpu_s;
        answer_wall_ms.push_back(t.wall_s * 1e3);
        if (!finite(p)) ++non_finite;
        answers.push_back({v, s, t.cpu_s * 1e3, p.veritas_low.rebuffer_ratio_pct,
                           p.veritas_high.rebuffer_ratio_pct, fingerprint(p)});
      }
    });
    visit_s.push_back(visit.reference_s());
    visit_cpu_s.push_back(visit.cpu_s);
    visit_wall_s.push_back(visit.wall_s);
    if (v + 1 == kRssVisits) rss = peak_rss_mb();
  }

  const auto stats = service->stats();
  report.gate(stats.reconciled(), "ServiceStats::reconciled() fails at quiescence");
  report.gate(non_finite == 0, "non-finite what-if answers");

  // Bit-identity: the first visits again, on a locally built engine.
  const CounterfactualEngine local(veritas::core::VeritasConfig{}, kRttS);
  std::uint64_t mismatches = 0;
  for (const Answer& a : answers) {
    if (a.visit >= kCheckedVisits) continue;
    const WhatIfPrediction p = local.predict_whatif(
        corpus.logs[a.visit % kLogs], bench_video(), settings[a.setting], a.visit);
    if (fingerprint(p) != a.digest) ++mismatches;
  }
  report.gate(mismatches == 0, "service-backed what-if answers differ from a "
                               "local engine on " +
                                   std::to_string(mismatches) + " answers");

  // Accuracy, on the first visit of every log: the Veritas bracket's
  // midpoint against the oracle replay on the ground truth, and the MAP
  // against the ground truth (abductions come from the result cache).
  std::map<std::pair<std::size_t, std::size_t>, const Answer*> first_visits;
  for (const Answer& a : answers) {
    if (a.visit < kScoredLogs) first_visits[{a.visit, a.setting}] = &a;
  }
  std::vector<double> rebuffer_err;
  double mae = 0.0;
  for (std::size_t v = 0; v < kLogs; ++v) {
    veritas::service::Query q;
    q.log = corpus.logs[v];
    q.shard = kShard;
    q.seed_xor = v;
    const auto result = service->submit(std::move(q)).get();
    report.gate(result.ok(), "abduction for accuracy failed");
    if (!result.ok()) return;
    mae += corpus.gtbw[v].mean_abs_diff_mbps(result.value().abduction->map_trace);
    for (std::size_t s = 0; v < kScoredLogs && s < settings.size(); ++s) {
      double low = 0.0, high = 0.0;
      if (const auto it = first_visits.find({v, s}); it != first_visits.end()) {
        low = it->second->low_rebuffer;
        high = it->second->high_rebuffer;
      } else {  // not reached in the timed loop
        const WhatIfPrediction p =
            engine.predict_whatif(corpus.logs[v], bench_video(), settings[s], v);
        low = p.veritas_low.rebuffer_ratio_pct;
        high = p.veritas_high.rebuffer_ratio_pct;
      }
      const QoeMetrics oracle = veritas::query::run_under_setting(
          corpus.gtbw[v], bench_video(), settings[s], kRttS, v);
      rebuffer_err.push_back(std::abs(0.5 * (low + high) - oracle.rebuffer_ratio_pct));
    }
  }
  mae /= double(kLogs);

  std::vector<double> latency;
  for (const Answer& a : answers) latency.push_back(a.latency_ms);
  report.attempted = answers.size();
  report.failed = non_finite + mismatches;
  // Closed loop: one visit answers every setting; the rate is over the
  // median rotation of visits.
  const double rate =
      double(settings.size()) / median(cycle_means(visit_s, run.nproc));
  report.e2e("setup_s", median(setup_s), "s", setup_s.size(),
             "median VeritasService construction + add_shard, at the reference "
             "CPU speed");
  report.e2e("peak_rss_mb", rss, "MB", kRssVisits, "through the first visits");
  report.e2e("gtbw_mae_mbps", mae, "Mbps", kLogs,
             "mean |GTBW - MAP| of the service's abductions");
  report.e2e("throughput_per_s", rate, "1/s", visit_s.size(),
             "(log, setting) answers per second at the reference CPU speed");
  report.info("setup_cpu_s", median(setup_cpu_s), "s", setup_cpu_s.size());
  report.info("cpu_throughput_per_s",
              double(settings.size()) / median(cycle_means(visit_cpu_s, run.nproc)),
              "1/s", visit_cpu_s.size(), "answers per CPU-second");
  report.info("latency_p50_ms", median(latency), "ms", latency.size(),
             "per predict_whatif answer, CPU time");
  report.info("latency_tail_ms", percentile(latency, kTail), "ms", latency.size(),
             tail_note(kTail, latency.size()));
  report.info("wall_latency_p50_ms", median(answer_wall_ms), "ms",
              answer_wall_ms.size(), "per answer, wall time");
  report.info("whatif_answers_per_s",
              double(settings.size()) / median(cycle_means(visit_wall_s, run.nproc)),
              "1/s", answers.size(), "per wall-second");
  report.info("whatif_rebuffer_err_pct", median(rebuffer_err), "%",
              rebuffer_err.size(), "median |bracket midpoint - oracle|");
  report.info("whatif_rebuffer_err_mean_pct", mean(rebuffer_err), "%",
              rebuffer_err.size(), "mean |bracket midpoint - oracle|");
  report.info("error_frac", double(report.failed) / double(answers.size()),
              "ratio", answers.size());
}

namespace {

/// Traced: one client, visits replayed step by step — the abduction
/// through the service, the Baseline reconstruction and every replay
/// through run_under_setting — each answer checked against
/// predict_whatif's.
void trace_whatif(const RunConfig& run, const Corpus& corpus, Report& report) {
  const std::vector<Setting> settings = sweep();
  report.lanes = 1;
  report.generator_threads = 1;

  // Untraced reference pass on its own service.
  std::vector<std::uint64_t> digests;
  double untraced_ms = 0.0;
  veritas::service::ServiceStats untraced_stats;
  {
    const auto service = make_service(1);
    const CounterfactualEngine engine(service, kShard, kRttS);
    const auto t0 = Clock::now();
    for (std::size_t v = 0; v < kTracedVisits; ++v) {
      for (const Setting& s : settings) {
        digests.push_back(fingerprint(
            engine.predict_whatif(corpus.logs[v], bench_video(), s, v)));
      }
    }
    untraced_ms = seconds_since(t0) * 1e3 / double(digests.size());
    untraced_stats = service->stats();
  }

  const auto service = make_service(1);
  SpanLog spans;
  std::map<std::string, std::vector<double>> replay_us;
  std::size_t replays = 0;
  std::uint64_t mismatches = 0;
  std::vector<double> answer_us;
  std::uint64_t query = 0;
  for (std::size_t v = 0; v < kTracedVisits; ++v) {
    const auto& log = corpus.logs[v];
    for (const Setting& setting : settings) {
      const std::int32_t root = spans.begin("answer", -1, query);
      std::int32_t s = spans.begin("service.abduct", root, query);
      veritas::service::Query q;
      q.log = log;
      q.shard = kShard;
      q.seed_xor = v;
      const auto result = service->submit(std::move(q)).get();
      spans.end(s);
      report.gate(result.ok(), "traced abduction failed");
      if (!result.ok()) return;
      const auto& abduction = *result.value().abduction;

      s = spans.begin("core.baseline_trace", root, query);
      const auto baseline = veritas::core::baseline_trace(log);
      spans.end(s);
      WhatIfPrediction p;
      s = spans.begin("sim.replay", root, query);
      p.baseline = veritas::query::run_under_setting(baseline, bench_video(),
                                                     setting, kRttS, v);
      spans.end(s);
      replay_us[setting.abr].push_back(spans.duration_us(s));
      for (const auto& sample : abduction.samples) {
        s = spans.begin("sim.replay", root, query);
        p.veritas_samples.push_back(veritas::query::run_under_setting(
            sample, bench_video(), setting, kRttS, v));
        spans.end(s);
        replay_us[setting.abr].push_back(spans.duration_us(s));
      }
      replays += 1 + abduction.samples.size();
      spans.end(root);
      answer_us.push_back(spans.duration_us(root));

      // Everything but the low/high order statistics, which stay internal
      // to CounterfactualEngine, must match predict_whatif's answer.
      const WhatIfPrediction reference = CounterfactualEngine(service, kShard, kRttS)
          .predict_whatif(log, bench_video(), setting, v);
      Fingerprint a, b;
      add_qoe(a, p.baseline);
      add_qoe(b, reference.baseline);
      for (const auto& m : p.veritas_samples) add_qoe(a, m);
      for (const auto& m : reference.veritas_samples) add_qoe(b, m);
      if (a.digest() != b.digest() || fingerprint(reference) != digests[query]) {
        ++mismatches;
      }
      ++query;
    }
  }
  report.gate(mismatches == 0, "traced replays differ from predict_whatif on " +
                                   std::to_string(mismatches) + " answers");

  // The reference predict_whatif calls above are cache hits too; count
  // the untraced pass, which asks each (log, setting) exactly once.
  report.layer("sim.replays_per_answer", double(replays) / double(query), "count");
  for (const char* abr : {"mpc", "bba", "bola", "rate_based"}) {
    report.layer(std::string("sim.replay_us.") + abr, mean(replay_us[abr]), "us",
                 replay_us[abr].size());
  }
  const double lookups =
      double(untraced_stats.cache_hits + untraced_stats.cache_misses);
  report.layer("service.result_cache_hits", double(untraced_stats.cache_hits),
               "count");
  report.layer("service.result_cache_hit_ratio",
               double(untraced_stats.cache_hits) / lookups, "ratio");
  const auto shard = service->shard_stats().front();
  report.layer("service.compute_p50_us", shard.latency_p50_us, "us",
               shard.latency_count, "abductions, from ShardStats");
  report.layer("service.compute_p99_us", shard.latency_p99_us, "us",
               shard.latency_count, "abductions, from ShardStats");

  auto self = spans.self_us_by_name();
  const double n = double(query);
  const double covered =
      (self["service.abduct"] + self["core.baseline_trace"] + self["sim.replay"]) / n;
  report.layer("trace.coverage_frac", covered / (untraced_ms * 1e3), "ratio", 0,
               "abduct + baseline + replay self time / untraced answer time");
  report.layer("trace.overhead_frac",
               (mean(answer_us) - untraced_ms * 1e3) / (untraced_ms * 1e3), "ratio");
  save_spans(run, spans, report);
  report.attempted = query;
  report.failed = mismatches;
}

}  // namespace

}  // namespace perfbench
