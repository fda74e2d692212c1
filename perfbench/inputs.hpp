// Workload inputs. Everything is derived from the workload seed, so the
// same seed gives the same sessions; the library only ever sees the
// generated logs. Sessions are simulator output, never filtered or
// re-seeded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/session_log.hpp"
#include "trace/bandwidth_trace.hpp"
#include "video/video.hpp"

namespace perfbench {

/// Recorded sessions plus the ground truth an emulation study keeps.
struct Corpus {
  std::vector<veritas::sim::SessionLog> logs;
  std::vector<veritas::trace::BandwidthTrace> gtbw;  ///< per log
  std::vector<std::string> abr;                      ///< deployed ABR per log
};

/// The one video every session streams (paper default: 10 min, 2 s chunks).
const veritas::video::Video& bench_video();

/// Deployed ABRs of the fleet, drawn per session.
inline const std::vector<std::string>& fleet_abrs() {
  static const std::vector<std::string> abrs{"mpc", "bba", "bola"};
  return abrs;
}

/// `count` sessions on FCC-like traces, each deployed with an ABR drawn
/// from fleet_abrs() and a 5 s buffer (paper Setting A). Simulated on up
/// to `threads` threads before any measurement starts.
Corpus fleet_corpus(std::size_t count, std::uint64_t seed, std::size_t threads);

/// Like fleet_corpus, but every session has user pauses of several
/// minutes: playback and downloading stop, so the next chunk starts late
/// and its TCP snapshot records the idle time in last_send_gap_s.
Corpus paused_corpus(std::size_t count, std::uint64_t seed,
                     std::size_t threads);

}  // namespace perfbench
