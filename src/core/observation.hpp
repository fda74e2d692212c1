// The per-chunk observation tuple the EHMM conditions on:
// (Y_n, W_sn, S_n, s_n, e_n). Converted from a deployed-system session
// log; deliberately excludes the ground-truth bandwidth.
#pragma once

#include <cstddef>
#include <vector>

#include "net/tcp_state.hpp"
#include "sim/session_log.hpp"

namespace veritas::core {

/// Bound on the δ-window span of a session: every chunk start must lie
/// in a window below it (Ehmm::window_of) and a reconstructed trace may
/// hold at most this many windows (states_to_trace). A trace stores one
/// double per window and one query builds 1 + K of them, so 2^20 windows
/// caps a query's traces at (1 + K) × 8 MiB, where an unbounded log
/// asked for gigabytes. At the paper's δ = 5 s it still admits a 60-day
/// span (14 days at δ = 1 s), far beyond any streaming session. It also
/// keeps t / δ far inside size_t, so the window index cast is defined.
inline constexpr std::size_t kMaxSessionWindows = std::size_t{1} << 20;

struct ChunkObservation {
  double throughput_mbps = 0.0;  ///< Y_n = S_n / D_n
  net::TcpState tcp;             ///< W_sn
  double size_bytes = 0.0;       ///< S_n
  double start_s = 0.0;          ///< s_n
  double end_s = 0.0;            ///< e_n
};

/// Extracts observations from a session log. Requires a non-empty log
/// with strictly increasing chunk start times and end > start per chunk.
std::vector<ChunkObservation> observations_from_log(
    const sim::SessionLog& log);

}  // namespace veritas::core
