// The Veritas domain-specific emission model f (paper Algorithm 4).
//
// f estimates the throughput a chunk of size S would observe when the
// ground-truth bandwidth is a *candidate* constant c and the connection
// starts the download in TCP state W. It models slow start, additive
// congestion avoidance and slow-start restart, but deliberately ignores
// GTBW changes during the download (paper Eq. 3 simplification) — the
// EHMM's Gaussian noise term absorbs the residual error (paper Fig. 5).
#pragma once

#include <span>

#include "net/tcp_state.hpp"

namespace veritas::net {

/// Estimated throughput (Mbps) for downloading `size_bytes` at candidate
/// GTBW `gtbw_mbps` from TCP state `w`. Pure function; `w` is copied and
/// slow-start restart applied internally. Requires size_bytes > 0 and a
/// post-restart cwnd > 0 (not NaN): a window that never sends would make
/// the round count diverge. Returns 0 when gtbw_mbps == 0.
double estimate_throughput_mbps(double gtbw_mbps, const TcpState& w,
                                double size_bytes,
                                const TcpConfig& config = {});

/// f evaluated for a whole candidate row at once:
/// out[i] = estimate_throughput_mbps(candidates_mbps[i], w, size_bytes) —
/// *bit-identical* to the per-candidate composition for every candidate
/// vector, Cubic and BBR states alike. Slow-start restart and the
/// candidate-independent terms (segment count, one-RTT throughput) are
/// computed once; the per-candidate window evolution runs through the
/// vectorized kernel table (math::simd_kernels::KernelOps::
/// estimate_batch) when the active dispatch mode provides one, and
/// otherwise through the scalar composition itself — same
/// VERITAS_SIMD switch / env var / ScopedMode machinery as the EHMM
/// recursions. Requires size_bytes > 0, a post-restart cwnd > 0 (as
/// above), candidates >= 0 and out.size() >= candidates.size(); writes
/// exactly candidates.size() entries.
void estimate_throughput_batch(std::span<const double> candidates_mbps,
                               const TcpState& w, double size_bytes,
                               const TcpConfig& config, std::span<double> out);

/// Estimated download time (seconds) = size / f(...); +inf when the
/// estimated throughput is 0.
double estimate_download_time_s(double gtbw_mbps, const TcpState& w,
                                double size_bytes,
                                const TcpConfig& config = {});

namespace detail {

/// The seed's per-round loop counting transmission rounds for
/// `data_segments` starting from window `cwnd` (post-SSR) under the
/// grow_window law: the executable specification the closed-form path is
/// property-tested against, and the fallback when one of its guards trips.
/// Requires cwnd, bdp and config.rwnd_segments > 0 and data_segments /
/// min(cwnd, bdp, rwnd) < INT_MAX, which bounds the round count.
int count_rounds_iterative(double cwnd, double ssthresh, double bdp,
                           double data_segments, const TcpConfig& config);

/// Closed-form round count: slow-start doublings are O(log) literal
/// steps, congestion-avoidance runs collapse to an arithmetic-series
/// solve (exact on the coarse window grid real stacks produce), and
/// constant-send tails to one division with a floating-point boundary
/// guard. Bit-identical to count_rounds_iterative: any input where the
/// rounded reference sums could flip a loop-exit decision falls back to
/// the reference loop itself.
int count_rounds(double cwnd, double ssthresh, double bdp,
                 double data_segments, const TcpConfig& config);

}  // namespace detail

/// Ablation hook (bench_ablate_tcp_state): a deliberately broken variant
/// of f that ignores the TCP state entirely and assumes the connection is
/// in steady state, i.e. returns min(gtbw, size/min_rtt). Demonstrates why
/// conditioning on W_sn matters (paper §3.2 d-separation argument).
double estimate_throughput_no_tcp_state_mbps(double gtbw_mbps,
                                             const TcpState& w,
                                             double size_bytes,
                                             const TcpConfig& config = {});

}  // namespace veritas::net
