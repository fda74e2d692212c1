// Shared plumbing of the Veritas benchmark program: clocks, sample
// statistics, the benchmark-side span log, result fingerprints, memory
// probes and the per-run report every workload fills in.
//
// Every number here is taken from outside the library: the benchmark calls
// public entry points and times them; nothing inside veritas_core is
// instrumented.
#pragma once

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/inference_engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * double(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, std::size_t(rank) - 1);
  return values[index];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / double(values.size());
}

/// Means of consecutive groups of `cycle` values (an incomplete last group
/// is dropped). Work pinned to each CPU in turn (see Pin) is summarized
/// as the median of these rotation means: a median taken straight across
/// CPUs of different speeds jumps between them from run to run.
inline std::vector<double> cycle_means(const std::vector<double>& values,
                                       std::size_t cycle) {
  std::vector<double> out;
  for (std::size_t i = 0; cycle > 0 && i + cycle <= values.size(); i += cycle) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + cycle; ++j) sum += values[j];
    out.push_back(sum / double(cycle));
  }
  return out;
}

/// Tail percentile reported next to a median: the highest percentile
/// with at least ten samples beyond it at the benchmark's run length.
/// Fixed per workload (a percentile that moved with the sample count
/// would make runs incomparable); `tail_note` flags a short sample.
inline std::string tail_note(double p, std::size_t samples) {
  std::string note = "p" + std::to_string(int(p)) + " of " +
                     std::to_string(samples);
  if (double(samples) * (1.0 - p / 100.0) < 10.0) {
    note += " (fewer than ten samples beyond it)";
  }
  return note;
}

/// One reported number. `samples` is how many measurements it summarizes
/// (0 for counts and derived ratios); `note` says how it was taken.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

/// Everything one workload run produces.
struct Report {
  bool correct = true;
  std::vector<std::string> gate_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t lanes = 0;              ///< library worker lanes
  std::size_t generator_threads = 0;  ///< load-generator / client threads
  std::vector<Metric> end_to_end;  ///< untraced run
  std::vector<Metric> per_layer;   ///< traced run
  /// Per-workload end-to-end figures behind the generic metrics (printed
  /// for people; not part of the machine-read result).
  std::vector<Metric> detail;

  /// Records a correctness gate; any failure invalidates the run.
  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      gate_failures.push_back(what);
    }
  }
  void e2e(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {}) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples,
                          std::move(note)});
  }
  void layer(std::string name, double value, std::string unit,
             std::size_t samples = 0, std::string note = {}) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples,
                         std::move(note)});
  }
  void info(std::string name, double value, std::string unit,
            std::size_t samples = 0, std::string note = {}) {
    detail.push_back({std::move(name), value, std::move(unit), samples,
                      std::move(note)});
  }
};

/// Benchmark-side spans around calls into the library. Each span has a
/// name, start and end, the index of its parent span (-1 for a root) and
/// the id of the query it belongs to. Spans stay in memory until the run
/// ends. Not thread-safe: one log per recording thread.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t query = 0;
  };

  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint64_t query) {
    spans_.push_back({name, now_ns(), 0, parent, query});
    return std::int32_t(spans_.size() - 1);
  }
  void end(std::int32_t index) { spans_[std::size_t(index)].end_ns = now_ns(); }

  double duration_us(std::int32_t index) const {
    const Span& s = spans_[std::size_t(index)];
    return double(s.end_ns - s.start_ns) / 1e3;
  }

  /// Self time of every span name, in µs: each span's duration minus the
  /// part of it that its direct children cover (children never overlap
  /// here — they are recorded sequentially on one thread).
  std::map<std::string, double> self_us_by_name() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[std::size_t(s.parent)] += double(s.end_ns - s.start_ns) / 1e3;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += double(s.end_ns - s.start_ns) / 1e3 - child_us[i];
    }
    return out;
  }

  /// One JSON object per line; times relative to the first span.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << (s.start_ns - t0)
          << ",\"end_ns\":" << (s.end_ns - t0) << ",\"parent\":" << s.parent
          << ",\"query\":" << s.query << "}\n";
    }
    return bool(out);
  }

 private:
  std::vector<Span> spans_;
};

/// FNV-1a over raw bytes: bit-identity fingerprints of results.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void doubles(const double* data, std::size_t n) {
    bytes(data, n * sizeof(double));
  }
  void value(double v) { bytes(&v, sizeof v); }
  std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline void add_trace(Fingerprint& fp, const veritas::trace::BandwidthTrace& t) {
  fp.value(t.interval_s());
  fp.doubles(t.values_mbps().data(), t.values_mbps().size());
}

/// Fingerprint of everything an abduction returns.
inline std::uint64_t fingerprint(const veritas::core::VeritasResult& r) {
  Fingerprint fp;
  add_trace(fp, r.map_trace);
  for (const auto& s : r.samples) add_trace(fp, s);
  fp.doubles(r.map_states_mbps.data(), r.map_states_mbps.size());
  const auto& g = r.posterior_marginals;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) fp.value(g(i, j));
  }
  fp.value(r.log_likelihood);
  return fp.digest();
}

/// True when every number an abduction returns is finite.
inline bool all_finite(const veritas::core::VeritasResult& r) {
  if (!std::isfinite(r.log_likelihood)) return false;
  for (const double v : r.map_states_mbps) {
    if (!std::isfinite(v)) return false;
  }
  for (const auto& s : r.samples) {
    for (const double v : s.values_mbps()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

/// CPU time the whole process has used, in seconds. Single-threaded work
/// is timed with it: on a shared virtual host a vCPU can be descheduled
/// for a varying share of a run, and that stolen time inflates wall time
/// but not CPU time. Work handed to another thread of the process (a
/// service lane) is counted too.
inline double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return double(t.tv_sec) + double(t.tv_nsec) * 1e-9;
}

/// CPU time of the calling thread, in seconds.
inline double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return double(t.tv_sec) + double(t.tv_nsec) * 1e-9;
}

namespace calibration {

/// A 21-state forward recursion in log space: the arithmetic of the
/// abduction kernels.
inline double forward() {
  constexpr std::size_t k = 21;
  constexpr std::size_t steps = 150;
  double a[k * k];
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const double d = double(i > j ? i - j : j - i);
      a[i * k + j] = -0.5 * d - std::log(double(k));
    }
  }
  double alpha[k], next[k];
  for (std::size_t i = 0; i < k; ++i) alpha[i] = -std::log(double(k));
  for (std::size_t t = 0; t < steps; ++t) {
    const double x = double((t * 7) % k);
    for (std::size_t j = 0; j < k; ++j) {
      double m = -1e300;
      for (std::size_t i = 0; i < k; ++i) m = std::max(m, alpha[i] + a[i * k + j]);
      double sum = 0.0;
      for (std::size_t i = 0; i < k; ++i) sum += std::exp(alpha[i] + a[i * k + j] - m);
      next[j] = m + std::log(sum) - 0.5 * (x - double(j)) * (x - double(j));
    }
    double m = -1e300;
    for (std::size_t j = 0; j < k; ++j) m = std::max(m, next[j]);
    for (std::size_t j = 0; j < k; ++j) alpha[j] = next[j] - m;
  }
  return alpha[0];
}

/// Best score of an exhaustive search over 5 quality levels and 4 chunks
/// ahead, simulating a playback buffer: the branchy arithmetic of the
/// ABR replays behind what-if answers.
inline double rollout(std::size_t depth, double buffer_s, double score,
                      double previous, double mbps) {
  if (depth == 4) return score;
  double best = -1e300;
  for (std::size_t q = 0; q < 5; ++q) {
    const double bitrate = 0.3 * double(1u << q);
    const double download_s = bitrate * 4.0 / mbps;
    const double stall = std::max(0.0, download_s - buffer_s);
    const double buffer = std::min(std::max(0.0, buffer_s - download_s) + 4.0, 15.0);
    const double s = score + bitrate - 4.3 * stall -
                     (previous >= 0.0 ? std::abs(bitrate - previous) : 0.0);
    best = std::max(best, rollout(depth + 1, buffer, s, bitrate, mbps));
  }
  return best;
}

}  // namespace calibration

/// A fixed piece of CPU work that calls nothing in the library: half the
/// arithmetic of the abduction kernels, half that of ABR replays. Returns
/// the calling thread's CPU time for it. Run next to timed work on the
/// same CPU, it measures how fast that CPU is running just then: on a
/// shared host the same code runs up to twice as fast on one vCPU as on
/// another, and the speeds drift over minutes as other tenants come and
/// go.
inline double calibration_cpu_s() {
  const double t0 = thread_cpu_s();
  double sink = calibration::forward();
  for (std::size_t i = 0; i < 300; ++i) {
    sink += calibration::rollout(0, double(i % 13), 0.0, -1.0, 0.5 + double(i % 17));
  }
  const double seconds = thread_cpu_s() - t0;
  volatile double keep = sink;
  (void)keep;
  return seconds;
}

/// Calibration-loop time that defines the reference CPU speed: gated
/// timings are reported as the CPU time the work would have taken on a CPU
/// running calibration_cpu_s() in this long (about what a quiet vCPU of
/// the 4-vCPU host the bounds were set on takes).
constexpr double kReferenceCalibrationS = 1.5e-3;

/// `cpu_s` of CPU time, measured where the calibration loop took
/// `calibration_s`, rescaled to the reference CPU speed.
inline double at_reference_speed(double cpu_s, double calibration_s) {
  return cpu_s * kReferenceCalibrationS / calibration_s;
}

/// Wall and process CPU time of one measured call, and the calibration
/// time measured next to it (0 when none was).
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double calibration_s = 0.0;

  double reference_s() const { return at_reference_speed(cpu_s, calibration_s); }
};

/// Pins the calling thread to the (index mod n)-th CPU it may use for the
/// lifetime of the object, then restores its affinity. Single-threaded
/// work is run across every CPU in turn because on a shared host one CPU
/// can run the same code far slower than another. Threads started while
/// pinned inherit the pin, so no long-lived worker may be started then.
class Pin {
 public:
  explicit Pin(std::size_t index) {
    pinned_ = sched_getaffinity(0, sizeof allowed_, &allowed_) == 0 &&
              CPU_COUNT(&allowed_) > 0;
    if (!pinned_) return;
    std::size_t nth = index % std::size_t(CPU_COUNT(&allowed_));
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_) && nth-- == 0) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    sched_setaffinity(0, sizeof one, &one);
  }
  ~Pin() {
    if (pinned_) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

 private:
  cpu_set_t allowed_{};
  bool pinned_ = false;
};

/// Times `f` from the calling thread (see process_cpu_s).
template <class F>
Timing timed(F&& f) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  f();
  return {seconds_since(t0), process_cpu_s() - cpu0};
}

/// Runs `f` pinned (see Pin) between two runs of the calibration loop on
/// the same CPU; returns their mean.
template <class F>
double calibrated_pinned(std::size_t index, F&& f) {
  const Pin pin(index);
  const double before = calibration_cpu_s();
  f();
  return 0.5 * (before + calibration_cpu_s());
}

/// Times `f` pinned, with the calibration measured around it.
template <class F>
Timing timed_pinned(std::size_t index, F&& f) {
  Timing t;
  const double calibration = calibrated_pinned(index, [&] { t = timed(f); });
  t.calibration_s = calibration;
  return t;
}

/// Resets the kernel's peak-RSS mark for this process so the workload's
/// peak excludes input generation. Returns false where unsupported.
inline bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return bool(f);
}

/// Peak resident set (VmHWM) in MB, 0 when /proc is unavailable.
inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
