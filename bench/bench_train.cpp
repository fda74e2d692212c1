// Baum-Welch training bench: EM wall-time across 1/2/4/hardware E-step
// threads, with a bit-identity cross-check of every configuration
// against the 1-thread run.
//
// Usage: bench_train [--sessions N] [--iterations I] [--repeat R]
//                    [--json PATH]
// The optional JSON snapshot feeds tools/run_bench.sh (BENCH_2.json).
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
#include "core/baum_welch.hpp"
#include "core/inference_engine.hpp"
#include "net/network_path.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/thread_pool.hpp"
#include "video/ladder_presets.hpp"

namespace {

using namespace veritas;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::vector<core::ChunkObservation>> make_sessions(
    std::size_t count) {
  const auto traces =
      trace::make_traces(trace::TraceFamily::kFccLike, count, 2024);
  const video::Video video(video::default_video_config());
  std::vector<std::vector<core::ChunkObservation>> sessions;
  sessions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto abr = abr::make_abr(i % 2 == 0 ? "mpc" : "bba");
    const net::NetworkPath path(traces[i], 0.08);
    sessions.push_back(core::observations_from_log(
        sim::run_session(video, *abr, path).log));
  }
  return sessions;
}

bool results_identical(const core::BaumWelchResult& a,
                       const core::BaumWelchResult& b) {
  if (a.iterations != b.iterations) return false;
  if (a.log_likelihoods != b.log_likelihoods) return false;
  if (a.sigma_mbps != b.sigma_mbps) return false;
  if (a.transition.matrix().max_abs_diff(b.transition.matrix()) != 0.0) {
    return false;
  }
  for (std::size_t i = 0; i < a.transition.initial().size(); ++i) {
    if (a.transition.initial()[i] != b.transition.initial()[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_sessions = 16;
  std::size_t iterations = 5;
  int repeat = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      n_sessions = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--sessions N] [--iterations I] [--repeat R] "
          "[--json PATH]\n",
          argv[0]);
      return 2;
    }
  }

  std::printf("== Baum-Welch training bench ==\n");
  std::printf("generating %zu sessions...\n", n_sessions);
  const auto sessions = make_sessions(n_sessions);
  std::size_t total_chunks = 0;
  for (const auto& s : sessions) total_chunks += s.size();
  std::printf("total chunks: %zu, %zu EM iterations per run\n", total_chunks,
              iterations);

  const core::InferenceEngine engine{core::VeritasConfig{}};
  core::BaumWelchConfig base;
  base.max_iterations = iterations;
  base.tolerance = 0.0;  // force every iteration: wall-time comparability
  base.update_sigma = true;

  struct Mode {
    const char* name;
    std::size_t threads;
  };
  std::vector<Mode> modes{{"1 thread", 1}, {"2 threads", 2}, {"4 threads", 4}};
  const std::size_t hw = util::ThreadPool::hardware_threads();
  if (hw > 4) modes.push_back({"hw threads", hw});

  core::BaumWelchResult reference{core::TransitionModel::uniform(2), 0.0,
                                  {}, 0};
  double base_ms = 0.0;
  bool deterministic = true;
  std::vector<std::pair<std::string, double>> timings;
  std::printf("\n%-24s %12s %10s\n", "mode", "train (ms)", "speedup");
  for (const Mode& mode : modes) {
    core::BaumWelchConfig cfg = base;
    cfg.num_threads = mode.threads;
    double best_ms = 1e300;
    core::BaumWelchResult result{core::TransitionModel::uniform(2), 0.0,
                                 {}, 0};
    for (int r = 0; r < repeat; ++r) {
      const auto start = Clock::now();
      result = core::baum_welch_train(engine.ehmm(), sessions, cfg);
      best_ms = std::min(best_ms, seconds_since(start) * 1e3);
    }
    if (timings.empty()) {
      reference = result;
      base_ms = best_ms;
    } else {
      deterministic &= results_identical(result, reference);
    }
    timings.emplace_back(mode.name, best_ms);
    std::printf("%-24s %12.1f %9.2fx\n", mode.name, best_ms,
                base_ms / best_ms);
  }
  std::printf("\nall modes bit-identical to the first: %s\n",
              deterministic ? "yes" : "NO (BUG)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"bench_train\",\n"
        << "  \"kernels\": \""
        << veritas::math::simd_kernels::backend_name() << "\",\n"
        << "  \"sessions\": " << n_sessions << ",\n"
        << "  \"total_chunks\": " << total_chunks << ",\n"
        << "  \"em_iterations\": " << iterations << ",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"train_ms\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
      out << "    {\"mode\": \"" << timings[i].first
          << "\", \"ms\": " << timings[i].second << "}"
          << (i + 1 < timings.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"deterministic_across_modes\": "
        << (deterministic ? "true" : "false") << "\n"
        << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return deterministic ? 0 : 1;
}
