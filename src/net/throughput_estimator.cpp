#include "net/throughput_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/simd_kernels.hpp"
#include "util/expects.hpp"

namespace veritas::net {

namespace detail {

int count_rounds_iterative(double cwnd, double ssthresh, double bdp,
                           double data_segments, const TcpConfig& config) {
  // Termination: with cwnd, bdp and rwnd positive, no window ever drops
  // below m = min(cwnd, bdp, rwnd) — slow start doubles, congestion
  // avoidance adds one, BBR moves toward 2·bdp, and the clamp is rwnd —
  // so every round sends at least m and the loop ends within
  // ceil(data / m) rounds, which the second check keeps inside an int.
  // (Each comparison is false for NaN.)
  VERITAS_EXPECTS(cwnd > 0.0 && bdp > 0.0 && config.rwnd_segments > 0.0);
  const double min_send = std::min({cwnd, bdp, config.rwnd_segments});
  VERITAS_EXPECTS(data_segments / min_send < 2147483647.0);
  double sent = 0.0;
  int rounds = 0;
  while (sent < data_segments) {
    sent += std::min(cwnd, bdp);
    cwnd = grow_window(cwnd, ssthresh, bdp, config);
    ++rounds;
  }
  return rounds;
}

namespace {

// True when w is a multiple of 2^-20 with |w| < 2^26. Every congestion
// window a real stack produces is far coarser (doublings, +1 steps and
// halvings of the initial window), and on this grid the +1.0
// congestion-avoidance recurrence and its arithmetic-series partial sums
// are exact in double precision, so a jumped round count provably equals
// the reference loop's.
bool on_coarse_grid(double w) {
  if (!(w >= 0.0) || w >= 67108864.0) return false;
  const double scaled = w * 1048576.0;
  return scaled == std::floor(scaled);
}

// S(r) = r*c + r*(r-1)/2: segments sent by r congestion-avoidance rounds
// starting from window c. Exact under the coarse-grid preconditions.
double ca_sum(double c, double r) { return r * c + r * (r - 1.0) * 0.5; }

}  // namespace

// NOTE: the batched estimator's per-lane scalar continuation
// (finish_rounds in math/simd_kernels_simd.cpp) replicates this
// function's jumps and guards from a mid-stream state; keep the two in
// lockstep (pinned by tests/net/throughput_batch_test.cpp).
int count_rounds(double cwnd0, double ssthresh, double bdp,
                 double data_segments, const TcpConfig& config) {
  // The reference loop's partial sums carry rounding error bounded by
  // (#rounds)*eps*sum; any loop-exit decision closer to a boundary than
  // this slack is ambiguous and is resolved by running the reference.
  const double slack = 1e-9 * (data_segments + 1.0);
  const bool cubic =
      config.congestion_control == CongestionControl::kCubicLike;
  double cwnd = cwnd0;

  // `sent` is kept bit-identical to the reference loop's accumulator:
  // literal steps replay the same operations in the same order, and the
  // congestion-avoidance jump is exact arithmetic on the coarse grid.
  double sent = 0.0;
  long rounds = 0;

  for (int steps = 0; steps < 512; ++steps) {
    if (sent >= data_segments) return static_cast<int>(rounds);

    const double send = std::min(cwnd, bdp);
    const double next = grow_window(cwnd, ssthresh, bdp, config);

    // Constant-send tail: either the window stopped evolving (fixed
    // point of grow_window), or it already covers the pipe and is
    // non-decreasing, so every remaining round delivers `per`.
    const bool fixed_point = next == cwnd;
    const bool saturated = send == bdp && next >= cwnd;
    if (fixed_point || saturated) {
      const double per = fixed_point ? send : bdp;
      if (!(per > 0.0)) break;  // degenerate: defer to the reference
      const double remaining = data_segments - sent;
      const double ratio = remaining / per;
      if (!(ratio < 4e6)) break;  // error bound / overflow cap
      long k = static_cast<long>(std::ceil(ratio));
      if (k < 1) k = 1;
      while (k > 1 && static_cast<double>(k - 1) * per >= remaining) --k;
      while (static_cast<double>(k) * per < remaining) ++k;
      // Distance of the exit decision from the nearest flip point must
      // exceed the reference's accumulated rounding error.
      const double lo = remaining - static_cast<double>(k - 1) * per;
      const double hi = static_cast<double>(k) * per - remaining;
      if (lo < slack || hi < slack) break;
      return static_cast<int>(rounds + k);
    }

    // Congestion-avoidance run (cubic only): sends c, c+1, c+2, ...
    // while the window stays under both the pipe and the receive window.
    // !slow_start is absorbing (the window only grows), so the whole run
    // can be jumped with the arithmetic series — exactly, on the grid.
    if (cubic && next == cwnd + 1.0) {
      if (!in_slow_start(cwnd, ssthresh, bdp, config)) {
        if (!on_coarse_grid(cwnd) || !on_coarse_grid(sent) ||
            data_segments >= 1073741824.0) {
          break;  // off-grid: exactness argument void, use the reference
        }
        // Largest t with cwnd + t <= min(bdp, rwnd): beyond it the send
        // caps at bdp or growth clamps at rwnd. Window values are exact,
        // so a floor plus local adjustment lands the crossing exactly.
        const double bound = std::min(bdp, config.rwnd_segments);
        long t_max = static_cast<long>(std::floor(bound - cwnd));
        while (cwnd + static_cast<double>(t_max + 1) <= bound) ++t_max;
        while (t_max > 0 && cwnd + static_cast<double>(t_max) > bound)
          --t_max;
        if (t_max < 0) t_max = 0;
        const long run = t_max + 1;  // rounds sending cwnd .. cwnd+t_max
        if (cwnd + static_cast<double>(run) >= 67108864.0) break;

        // Minimal r in [1, run] with sent + S(r) >= data, if any. The
        // quadratic solve gets within a step or two; the exact S
        // evaluations land it. Never extrapolate past the run: beyond it
        // the sends cap at bdp (or growth clamps at rwnd).
        const double need = data_segments - sent;  // exact on the grid
        const double c2 = 2.0 * cwnd - 1.0;
        long r = static_cast<long>(
            std::ceil((std::sqrt(c2 * c2 + 8.0 * need) - c2) * 0.5));
        r = std::clamp(r, 1L, run);
        while (r > 1 && ca_sum(cwnd, static_cast<double>(r - 1)) >= need)
          --r;
        while (r < run && ca_sum(cwnd, static_cast<double>(r)) < need) ++r;
        if (ca_sum(cwnd, static_cast<double>(r)) >= need) {
          return static_cast<int>(rounds + r);
        }
        // The run ends (send caps or growth clamps) before the data is
        // done: account for the whole run and re-classify. The final
        // growth carries grow_window's receive-window clamp — when the
        // run ended at the rwnd boundary the reference's next window is
        // rwnd, not cwnd+run.
        sent += ca_sum(cwnd, static_cast<double>(run));
        rounds += run;
        cwnd = std::min(cwnd + static_cast<double>(run),
                        config.rwnd_segments);
        continue;
      }
    }

    // Literal step (slow-start doubling, BBR startup, clamp transients):
    // identical operations to the reference, so `sent` stays bit-exact.
    sent += send;
    cwnd = next;
    ++rounds;
  }

  // A guard tripped (boundary too close, off-grid window, or an
  // adversarial trajectory): the reference loop, replayed from the
  // original inputs, is the semantics.
  return count_rounds_iterative(cwnd0, ssthresh, bdp, data_segments, config);
}

}  // namespace detail

double estimate_throughput_mbps(double gtbw_mbps, const TcpState& w,
                                double size_bytes, const TcpConfig& config) {
  VERITAS_EXPECTS(size_bytes > 0.0);
  VERITAS_EXPECTS(gtbw_mbps >= 0.0);
  TcpState state = w;
  apply_slow_start_restart(state, config);
  // A window that is not positive (or NaN) never sends a segment: the
  // round count below could not terminate.
  VERITAS_EXPECTS(state.cwnd_segments > 0.0);
  if (gtbw_mbps == 0.0) return 0.0;

  const double data_segments = segments_for_bytes(size_bytes, config);
  const double bdp = bdp_segments(gtbw_mbps, state.min_rtt_s, config);

  // Paper Algorithm 4, branch 1: the window already covers the pipe.
  if (state.cwnd_segments > bdp) {
    if (data_segments > bdp) {
      return gtbw_mbps;  // long transfer saturates the link
    }
    // Fits in one round trip.
    return size_bytes * 8.0 / 1e6 / state.min_rtt_s;
  }

  // Branch 2: transmission rounds while the window opens (same growth
  // law as the deployed stack, see net::grow_window). The round count is
  // closed-form with a guarded fallback to the per-round reference loop;
  // see detail::count_rounds.
  const int rounds =
      detail::count_rounds(state.cwnd_segments, state.ssthresh_segments, bdp,
                           data_segments, config);
  const double estimated =
      size_bytes * 8.0 / 1e6 / (static_cast<double>(rounds) * state.min_rtt_s);
  return std::min(estimated, gtbw_mbps);
}

void estimate_throughput_batch(std::span<const double> candidates_mbps,
                               const TcpState& w, double size_bytes,
                               const TcpConfig& config,
                               std::span<double> out) {
  VERITAS_EXPECTS(size_bytes > 0.0);
  VERITAS_EXPECTS(out.size() >= candidates_mbps.size());
  TcpState state = w;
  apply_slow_start_restart(state, config);
  // Same refusal as estimate_throughput_mbps: a window that is not
  // positive (or NaN) never finishes a transfer.
  VERITAS_EXPECTS(state.cwnd_segments > 0.0);
  if (candidates_mbps.empty()) return;

  const math::simd_kernels::KernelOps& ops =
      math::simd_kernels::active_ops();
  // The vector kernel assumes a well-formed state (the scalar path
  // re-validates per call and short-circuits zero candidates before its
  // RTT use); fall back to the reference composition otherwise.
  if (ops.estimate_batch != nullptr && w.min_rtt_s > 0.0) {
    for (const double c : candidates_mbps) VERITAS_EXPECTS(c >= 0.0);
    math::simd_kernels::TcpBatchParams p;
    p.cwnd0 = state.cwnd_segments;
    p.ssthresh = state.ssthresh_segments;
    p.min_rtt_s = state.min_rtt_s;
    p.mss_bytes = config.mss_bytes;
    p.rwnd_segments = config.rwnd_segments;
    p.init_cwnd = config.init_cwnd;
    p.hystart_bdp_fraction = config.hystart_bdp_fraction;
    p.data_segments = segments_for_bytes(size_bytes, config);
    p.size_bytes = size_bytes;
    p.bbr = config.congestion_control == CongestionControl::kBbrLike;
    p.hystart = config.enable_hystart;
    ops.estimate_batch(candidates_mbps.data(), candidates_mbps.size(), p,
                       out.data());
    return;
  }

  // Scalar reference: the batch result is *defined* as this composition.
  for (std::size_t i = 0; i < candidates_mbps.size(); ++i) {
    out[i] =
        estimate_throughput_mbps(candidates_mbps[i], w, size_bytes, config);
  }
}

double estimate_download_time_s(double gtbw_mbps, const TcpState& w,
                                double size_bytes, const TcpConfig& config) {
  const double y = estimate_throughput_mbps(gtbw_mbps, w, size_bytes, config);
  if (y <= 0.0) return std::numeric_limits<double>::infinity();
  return size_bytes * 8.0 / 1e6 / y;
}

double estimate_throughput_no_tcp_state_mbps(double gtbw_mbps,
                                             const TcpState& w,
                                             double size_bytes,
                                             const TcpConfig& config) {
  VERITAS_EXPECTS(size_bytes > 0.0);
  (void)config;
  // Steady-state assumption: either link-limited or one-RTT-limited.
  const double one_rtt_mbps = size_bytes * 8.0 / 1e6 / w.min_rtt_s;
  return std::min(gtbw_mbps, one_rtt_mbps);
}

}  // namespace veritas::net
