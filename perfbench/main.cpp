// Veritas benchmark program: one process runs one workload for a fixed
// time and prints its metrics. perfbench/run.py builds this binary and
// turns its result line into the benchmark's JSON verdict.
//
//   veritas_perfbench --workload fleet_abduct --seed 7 --seconds 16
//                     --trace 0 [--spans-out spans.jsonl]
//
// The last stdout line is `PERFBENCH_RESULT {...}`: the run's metrics,
// correctness gates, and the host and build it ran on. Exit status 0
// means the run completed (its gates may still have failed: see
// "correct"); 2 means bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "math/simd_kernels.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_TRACING
#define PERFBENCH_TRACING "unknown"
#endif
#ifndef PERFBENCH_FAILPOINTS
#define PERFBENCH_FAILPOINTS "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Report;
using perfbench::RunConfig;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) +
           ",\"note\":" + json_string(m.note) + "}";
  }
  return out + "}";
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-6s %-46s %16.6f %-6s n=%-7zu %s\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.c_str());
  }
}

int usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: veritas_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig run;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        run.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        run.seed = std::stoull(value);
      } else if (key == "--seconds") {
        run.seconds = std::stod(value);
      } else if (key == "--trace") {
        run.traced = value == "1";
      } else if (key == "--spans-out") {
        run.spans_out = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (!have_workload) return usage("--workload is required");
  if (!(run.seconds > 0.0)) return usage("--seconds must be positive");
  run.nproc = std::max(1u, std::thread::hardware_concurrency());

  const std::map<std::string, std::function<void(const RunConfig&, Report&)>>
      workloads{
          {"fleet_abduct", perfbench::run_fleet_abduct},
          {"fleet_train", perfbench::run_fleet_train},
          {"paused_wide_grid", perfbench::run_paused_wide_grid},
          {"whatif_sweep", perfbench::run_whatif_sweep},
          {"serve_open_loop", perfbench::run_serve_open_loop},
      };
  const auto it = workloads.find(run.workload);
  if (it == workloads.end()) return usage("unknown workload");

  Report report;
  report.lanes = run.nproc;
  try {
    it->second(run, report);
  } catch (const std::exception& e) {
    report.gate(false, std::string("exception: ") + e.what());
  }
  for (const Metric& m : run.traced ? report.per_layer : report.end_to_end) {
    report.gate(std::isfinite(m.value), "non-finite metric " + m.name);
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              run.seconds, run.traced ? 1 : 0);
  std::printf("host nproc=%zu kernels=%s build=%s tracing=%s failpoints=%s "
              "lanes=%zu generator_threads=%zu\n",
              run.nproc, veritas::math::simd_kernels::backend_name(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_TRACING, PERFBENCH_FAILPOINTS,
              report.lanes, report.generator_threads);
  print_metrics(run.traced ? "layer" : "e2e",
                run.traced ? report.per_layer : report.end_to_end);
  print_metrics("detail", report.detail);
  for (const std::string& failure : report.gate_failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < report.gate_failures.size(); ++i) {
    if (i) failures += ",";
    failures += json_string(report.gate_failures[i]);
  }
  failures += "]";
  std::ostringstream line;
  line << "PERFBENCH_RESULT {\"workload\":" << json_string(run.workload)
       << ",\"seed\":" << run.seed << ",\"trace\":" << (run.traced ? 1 : 0)
       << ",\"correct\":" << (report.correct ? "true" : "false")
       << ",\"attempted\":" << report.attempted
       << ",\"failed\":" << report.failed << ",\"gate_failures\":" << failures
       << ",\"host\":{\"nproc\":" << run.nproc
       << ",\"kernels\":" << json_string(veritas::math::simd_kernels::backend_name())
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"tracing\":" << json_string(PERFBENCH_TRACING)
       << ",\"failpoints\":" << json_string(PERFBENCH_FAILPOINTS)
       << ",\"lanes\":" << report.lanes
       << ",\"generator_threads\":" << report.generator_threads
       << ",\"seed\":" << run.seed << "}"
       << ",\"metrics\":"
       << json_metrics(run.traced ? report.per_layer : report.end_to_end)
       << ",\"detail\":" << json_metrics(report.detail) << "}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}
