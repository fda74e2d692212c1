// Batch-session inference bench: single-session latency broken into
// phases (emissions, Viterbi, forward-backward, sampling; fused vs the
// seed two-pass shape) plus infer_batch throughput (sessions/sec) at
// 1/2/4/hardware threads, with a determinism cross-check against the
// serial path.
//
// Usage: bench_batch_infer [--sessions N] [--repeat R] [--json PATH]
// The optional JSON snapshot feeds tools/run_bench.sh (BENCH_1.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "abr/abr_factory.hpp"
#include "math/simd_kernels.hpp"
#include "core/inference_engine.hpp"
#include "net/network_path.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/ladder_presets.hpp"

namespace {

using namespace veritas;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<sim::SessionLog> make_logs(std::size_t count) {
  const auto traces =
      trace::make_traces(trace::TraceFamily::kFccLike, count, 2024);
  const video::Video video(video::default_video_config());
  std::vector<sim::SessionLog> logs;
  logs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto abr = abr::make_abr(i % 2 == 0 ? "mpc" : "bba");
    const net::NetworkPath path(traces[i], 0.08);
    logs.push_back(sim::run_session(video, *abr, path).log);
  }
  return logs;
}

/// Mean wall-time per session of `body(session_index)`, over `repeat`
/// sweeps of all sessions.
template <typename Body>
double mean_us_per_session(std::size_t sessions, int repeat,
                           const Body& body) {
  const auto start = Clock::now();
  for (int r = 0; r < repeat; ++r) {
    for (std::size_t i = 0; i < sessions; ++i) body(i);
  }
  return seconds_since(start) * 1e6 /
         (static_cast<double>(repeat) * static_cast<double>(sessions));
}

struct PhaseTimes {
  double emissions_us = 0.0;
  double viterbi_us = 0.0;
  double forward_backward_us = 0.0;
  double sampling_us = 0.0;
  double two_pass_us = 0.0;
  double fused_pass_us = 0.0;
  double full_infer_us = 0.0;
};

PhaseTimes time_phases(const core::InferenceEngine& engine,
                       const std::vector<std::vector<core::ChunkObservation>>&
                           observations,
                       const std::vector<sim::SessionLog>& logs, int repeat) {
  const std::size_t n = observations.size();
  const core::Ehmm& ehmm = engine.ehmm();
  core::Ehmm::Scratch scratch;
  PhaseTimes t;

  // Emissions from a cold (W, S) cache per session, as a fresh engine
  // sees them: estimator rows, then the batched log-pdf.
  core::EstimatorCache cache;
  core::EstimatorCache::L1 l1;
  std::vector<const double*> rows;
  std::vector<std::shared_ptr<const core::EstimatorCache::Entry>> refs;
  math::Matrix logs_matrix;
  t.emissions_us = mean_us_per_session(n, repeat, [&](std::size_t i) {
    cache.clear();
    ehmm.emission_mean_rows_into(observations[i], cache, l1, rows, refs);
    ehmm.emission_log_probs_from_rows_into(observations[i], rows,
                                           logs_matrix);
  });
  t.viterbi_us = mean_us_per_session(n, repeat, [&](std::size_t i) {
    ehmm.viterbi(observations[i], scratch);
  });
  t.forward_backward_us = mean_us_per_session(n, repeat, [&](std::size_t i) {
    ehmm.forward_backward(observations[i], scratch);
  });

  // Sampling: amortize over precomputed passes, one per session (the
  // xi-free sampler reads the scratch arenas, so each session keeps the
  // arena that its pass filled) — same per-index workload shape as the
  // seed bench.
  std::vector<core::Ehmm::Scratch> sample_scratch(n);
  std::vector<core::Ehmm::InferencePass> passes;
  passes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    passes.push_back(ehmm.infer_fused(observations[i], sample_scratch[i]));
  }
  util::Rng rng(1);
  t.sampling_us = mean_us_per_session(n, repeat, [&](std::size_t i) {
    core::sample_capacity_states(ehmm, passes[i].viterbi,
                                 passes[i].forward_backward,
                                 sample_scratch[i], rng);
  });

  // Seed shape (independent passes, emissions recomputed) vs fused.
  t.two_pass_us = mean_us_per_session(n, repeat, [&](std::size_t i) {
    ehmm.viterbi(observations[i], scratch);
    ehmm.forward_backward(observations[i], scratch);
  });
  t.fused_pass_us = mean_us_per_session(n, repeat, [&](std::size_t i) {
    ehmm.infer_fused(observations[i], scratch);
  });
  t.full_infer_us = mean_us_per_session(n, repeat, [&](std::size_t i) {
    engine.infer(logs[i], scratch);
  });
  return t;
}

bool results_identical(const std::vector<core::VeritasResult>& a,
                       const std::vector<core::VeritasResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].log_likelihood != b[i].log_likelihood) return false;
    if (a[i].map_states_mbps != b[i].map_states_mbps) return false;
    if (a[i].samples.size() != b[i].samples.size()) return false;
    for (std::size_t s = 0; s < a[i].samples.size(); ++s) {
      const auto va = a[i].samples[s].values_mbps();
      const auto vb = b[i].samples[s].values_mbps();
      if (!std::equal(va.begin(), va.end(), vb.begin(), vb.end())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 64;
  int repeat = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--repeat R] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("== batch inference bench ==\n");
  std::printf("generating %zu sessions...\n", sessions);
  const std::vector<sim::SessionLog> logs = make_logs(sessions);
  std::size_t total_chunks = 0;
  for (const auto& log : logs) total_chunks += log.chunks.size();
  std::printf("total chunks: %zu (%.1f per session)\n", total_chunks,
              double(total_chunks) / double(sessions));

  const core::InferenceEngine engine{core::VeritasConfig{}};
  std::vector<std::vector<core::ChunkObservation>> observations;
  observations.reserve(logs.size());
  for (const auto& log : logs) {
    observations.push_back(core::observations_from_log(log));
  }

  const PhaseTimes t = time_phases(engine, observations, logs, repeat);
  std::printf("\n-- single-session phases (us, mean over %zu sessions) --\n",
              sessions);
  std::printf("%-22s %10.1f\n", "emissions", t.emissions_us);
  std::printf("%-22s %10.1f\n", "viterbi", t.viterbi_us);
  std::printf("%-22s %10.1f\n", "forward_backward", t.forward_backward_us);
  std::printf("%-22s %10.1f\n", "sampling", t.sampling_us);
  std::printf("%-22s %10.1f\n", "two_pass (seed shape)", t.two_pass_us);
  std::printf("%-22s %10.1f  (%.2fx vs two-pass)\n", "fused_pass",
              t.fused_pass_us, t.two_pass_us / t.fused_pass_us);
  std::printf("%-22s %10.1f\n", "full_infer", t.full_infer_us);

  // Batch throughput at increasing thread counts.
  std::vector<std::size_t> thread_counts{1, 2, 4};
  const std::size_t hw = util::ThreadPool::hardware_threads();
  if (hw > 4) thread_counts.push_back(hw);
  std::printf("\n-- infer_batch throughput (%zu sessions, best of %d) --\n",
              sessions, repeat);
  std::printf("%8s %14s %10s\n", "threads", "sessions/sec", "speedup");

  const std::vector<core::VeritasResult> serial = engine.infer_batch(logs, 1);
  std::vector<std::pair<std::size_t, double>> throughput;
  double base_rate = 0.0;
  bool deterministic = true;
  for (const std::size_t threads : thread_counts) {
    double best_rate = 0.0;
    for (int r = 0; r < repeat; ++r) {
      const auto start = Clock::now();
      const auto batch = engine.infer_batch(logs, threads);
      const double elapsed = seconds_since(start);
      best_rate = std::max(best_rate, double(sessions) / elapsed);
      if (r == 0) deterministic &= results_identical(batch, serial);
    }
    if (threads == 1) base_rate = best_rate;
    throughput.emplace_back(threads, best_rate);
    std::printf("%8zu %14.1f %9.2fx\n", threads, best_rate,
                best_rate / base_rate);
  }
  std::printf("\nbatch results identical to serial path: %s\n",
              deterministic ? "yes" : "NO (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"bench_batch_infer\",\n"
        << "  \"kernels\": \""
        << veritas::math::simd_kernels::backend_name() << "\",\n"
        << "  \"sessions\": " << sessions << ",\n"
        << "  \"total_chunks\": " << total_chunks << ",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"single_session_us\": {\n"
        << "    \"emissions\": " << t.emissions_us << ",\n"
        << "    \"viterbi\": " << t.viterbi_us << ",\n"
        << "    \"forward_backward\": " << t.forward_backward_us << ",\n"
        << "    \"sampling\": " << t.sampling_us << ",\n"
        << "    \"two_pass\": " << t.two_pass_us << ",\n"
        << "    \"fused_pass\": " << t.fused_pass_us << ",\n"
        << "    \"full_infer\": " << t.full_infer_us << "\n"
        << "  },\n"
        << "  \"batch_throughput\": [\n";
    for (std::size_t i = 0; i < throughput.size(); ++i) {
      out << "    {\"threads\": " << throughput[i].first
          << ", \"sessions_per_sec\": " << throughput[i].second << "}"
          << (i + 1 < throughput.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"deterministic_across_threads\": "
        << (deterministic ? "true" : "false") << "\n"
        << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return deterministic ? 0 : 1;
}
