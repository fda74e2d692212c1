// The benchmark's workloads. Each one generates its inputs from the
// seed, sets up, measures for the requested time, checks its outputs
// and fills a Report. With `traced` set it instead produces the
// per-layer breakdown from benchmark-side spans around library calls.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Threads the workload may run at once (lanes + load generators).
  std::size_t nproc = 1;
  /// Where the traced run writes its spans (empty = not written).
  std::string spans_out;
};

void run_fleet_abduct(const RunConfig& config, Report& report);
void run_fleet_train(const RunConfig& config, Report& report);
void run_paused_wide_grid(const RunConfig& config, Report& report);
void run_whatif_sweep(const RunConfig& config, Report& report);
void run_serve_open_loop(const RunConfig& config, Report& report);

/// Writes the span log when the run asked for it; a failed write fails
/// the run (the trace is part of its output).
inline void save_spans(const RunConfig& config, const SpanLog& spans,
                       Report& report) {
  if (config.spans_out.empty()) return;
  report.gate(spans.write_jsonl(config.spans_out),
              "could not write spans to " + config.spans_out);
}

}  // namespace perfbench
