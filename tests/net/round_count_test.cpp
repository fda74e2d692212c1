// Property tests for the closed-form TCP round count: sweeping
// (cwnd, ssthresh, bdp, data) grids — realistic coarse-grid windows,
// adversarial full-mantissa values, every congestion-control flavour —
// asserting EXACT agreement with the seed's per-round reference loop,
// plus full-estimator agreement across slow-start-restart edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "abr/abr_factory.hpp"
#include "core/inference_engine.hpp"
#include "math/simd_kernels.hpp"
#include "net/network_path.hpp"
#include "net/tcp_model.hpp"
#include "net/throughput_estimator.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::net {
namespace {

std::vector<TcpConfig> sweep_configs() {
  TcpConfig cubic;  // defaults: hystart on, rwnd 20000
  TcpConfig no_hystart;
  no_hystart.enable_hystart = false;
  TcpConfig bbr;
  bbr.congestion_control = CongestionControl::kBbrLike;
  TcpConfig tiny_rwnd;
  tiny_rwnd.rwnd_segments = 64.0;
  return {cubic, no_hystart, bbr, tiny_rwnd};
}

std::vector<double> bdp_grid() {
  // Derived the way the emission model derives it (candidate Mbps x RTT),
  // so the values carry full-precision mantissas, plus a few hand-picked
  // near-integer ratios.
  std::vector<double> grid;
  TcpConfig cfg;
  for (const double mbps : {0.5, 1.0, 3.0, 10.0, 50.0, 400.0}) {
    for (const double rtt : {0.005, 0.08, 0.3}) {
      grid.push_back(bdp_segments(mbps, rtt, cfg));
    }
  }
  grid.insert(grid.end(), {1.0, 2.5, 100.0 / 3.0, 69.0, 1000.0});
  return grid;
}

TEST(RoundCount, ClosedFormMatchesIterativeOnGrids) {
  const std::vector<double> cwnds = {1.0,  2.0,   5.0,   7.5,    10.0,
                                     13.0, 20.0,  40.0,  64.0,   100.0,
                                     333.0, 1000.0, 5000.0, 19999.0, 20000.0};
  const std::vector<double> ssthreshes = {1.0,  5.0,   10.0, 25.0,
                                          64.0, 200.0, 1e9};
  const std::vector<double> datas = {1.0,   2.0,   3.0,    10.0,   64.0,
                                     100.0, 691.0, 2900.0, 10000.0, 123457.0};
  std::size_t checked = 0;
  for (const TcpConfig& cfg : sweep_configs()) {
    for (const double bdp : bdp_grid()) {
      for (const double cwnd : cwnds) {
        for (const double ssthresh : ssthreshes) {
          for (const double data : datas) {
            if (data / std::min(cwnd, bdp) > 20000.0) continue;  // slow
            const int ref = detail::count_rounds_iterative(cwnd, ssthresh,
                                                           bdp, data, cfg);
            const int fast =
                detail::count_rounds(cwnd, ssthresh, bdp, data, cfg);
            ASSERT_EQ(fast, ref)
                << "cwnd=" << cwnd << " ssthresh=" << ssthresh
                << " bdp=" << bdp << " data=" << data;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000u);
}

TEST(RoundCount, ClosedFormMatchesIterativeDenselyWhenRwndBelowBdp) {
  // Receive-window-limited trajectories: the congestion-avoidance run
  // ends at the rwnd clamp, not the pipe, and the fast path must apply
  // grow_window's clamp when it exits the run (regression: cwnd+run
  // overshot rwnd and silently flipped round counts). Dense data sweep
  // so every flip point in range is hit, including the original
  // counterexample (cwnd=10, ssthresh=1, bdp=50, rwnd=16, data=108).
  for (const double rwnd : {12.0, 16.0, 64.0}) {
    TcpConfig cfg;
    cfg.rwnd_segments = rwnd;
    TcpConfig no_hystart = cfg;
    no_hystart.enable_hystart = false;
    for (const TcpConfig& c : {cfg, no_hystart}) {
      for (const double bdp : {20.0, 50.0, 345.303867403314917}) {
        for (const double cwnd : {2.0, 7.5, 10.0}) {
          for (const double ssthresh : {1.0, 8.0, 1e9}) {
            for (double data = 1.0; data <= 2000.0; data += 1.0) {
              const int ref = detail::count_rounds_iterative(cwnd, ssthresh,
                                                             bdp, data, c);
              const int fast =
                  detail::count_rounds(cwnd, ssthresh, bdp, data, c);
              ASSERT_EQ(fast, ref)
                  << "cwnd=" << cwnd << " ssthresh=" << ssthresh
                  << " bdp=" << bdp << " rwnd=" << rwnd << " data=" << data;
            }
          }
        }
      }
    }
  }
}

TEST(RoundCount, ClosedFormMatchesIterativeDenselyOnDefaultConfig) {
  // Dense data sweep on the default config too: every congestion-
  // avoidance and constant-tail exit boundary in range is exercised.
  const TcpConfig cfg;
  for (const double bdp : bdp_grid()) {
    for (const double cwnd : {5.0, 10.0, 20.0}) {
      for (const double ssthresh : {10.0, 64.0, 1e9}) {
        for (double data = 1.0; data <= 1500.0; data += 1.0) {
          const int ref =
              detail::count_rounds_iterative(cwnd, ssthresh, bdp, data, cfg);
          const int fast = detail::count_rounds(cwnd, ssthresh, bdp, data, cfg);
          ASSERT_EQ(fast, ref) << "cwnd=" << cwnd << " ssthresh=" << ssthresh
                               << " bdp=" << bdp << " data=" << data;
        }
      }
    }
  }
}

TEST(RoundCount, ClosedFormMatchesIterativeOnRandomFullMantissaInputs) {
  // Full-mantissa windows void the closed form's exactness argument; its
  // guards must detect that and fall back, keeping agreement exact.
  util::Rng rng(42);
  for (TcpConfig cfg : sweep_configs()) {
    for (int trial = 0; trial < 2000; ++trial) {
      // Half the trials also randomize the receive window, often below
      // the BDP, so rwnd-clamped trajectories are covered here too.
      if (trial % 2 == 1) cfg.rwnd_segments = rng.uniform(5.0, 500.0);
      const double bdp = rng.uniform(0.1, 5000.0);
      const double cwnd = rng.uniform(0.1, std::min(bdp, 25000.0));
      const double ssthresh = rng.uniform(0.5, 30000.0);
      const double data = std::ceil(rng.uniform(1.0, 1e5));
      if (data / std::min(cwnd, bdp) > 20000.0) continue;
      const int ref =
          detail::count_rounds_iterative(cwnd, ssthresh, bdp, data, cfg);
      const int fast = detail::count_rounds(cwnd, ssthresh, bdp, data, cfg);
      ASSERT_EQ(fast, ref) << "cwnd=" << cwnd << " ssthresh=" << ssthresh
                           << " bdp=" << bdp << " data=" << data;
    }
  }
}

// Replays the seed estimator (SSR + per-round loop + branch structure)
// so estimate_throughput_mbps can be checked end to end, slow-start
// restart included.
double reference_estimate(double gtbw_mbps, const TcpState& w,
                          double size_bytes, const TcpConfig& config) {
  if (gtbw_mbps == 0.0) return 0.0;
  TcpState state = w;
  apply_slow_start_restart(state, config);
  const double data = segments_for_bytes(size_bytes, config);
  const double bdp = bdp_segments(gtbw_mbps, state.min_rtt_s, config);
  if (state.cwnd_segments > bdp) {
    if (data > bdp) return gtbw_mbps;
    return size_bytes * 8.0 / 1e6 / state.min_rtt_s;
  }
  const int rounds = detail::count_rounds_iterative(
      state.cwnd_segments, state.ssthresh_segments, bdp, data, config);
  return std::min(
      size_bytes * 8.0 / 1e6 / (static_cast<double>(rounds) * state.min_rtt_s),
      gtbw_mbps);
}

TEST(RoundCount, EstimatorMatchesReferenceAcrossSlowStartRestartEdges) {
  TcpConfig cfg;
  std::size_t checked = 0;
  for (const double cwnd : {10.0, 20.0, 64.0, 100.0, 640.0, 2000.0}) {
    for (const double ssthresh : {10.0, 48.0, 1e9}) {
      // Gaps straddling the RTO decay boundaries: no decay (<= rto),
      // exactly one halving, many halvings down to the init-cwnd floor.
      for (const double gap : {0.0, 0.2, 0.2000001, 0.41, 1.3, 60.0}) {
        for (const double size : {1448.0, 4e3, 1e5, 1e6, 4e6}) {
          for (const double gtbw : {0.5, 3.0, 10.0}) {
            TcpState w;
            w.cwnd_segments = cwnd;
            w.ssthresh_segments = ssthresh;
            w.rto_s = 0.2;
            w.min_rtt_s = 0.08;
            w.rtt_s = 0.08;
            w.last_send_gap_s = gap;
            const double expected = reference_estimate(gtbw, w, size, cfg);
            const double got = estimate_throughput_mbps(gtbw, w, size, cfg);
            ASSERT_EQ(got, expected)
                << "cwnd=" << cwnd << " ssthresh=" << ssthresh
                << " gap=" << gap << " size=" << size << " gtbw=" << gtbw;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

// Regression: a 20-chunk session whose chunk 9 starts with cwnd = 0 (a
// corrupted log field). grow_window(0) stays 0, so the per-round loop
// added min(0, bdp) = 0 forever and inference on the log never returned.
// The estimator entries now refuse a non-positive (or NaN) post-restart
// window and the reference loop carries a precondition that bounds it.
sim::SessionLog zero_window_log() {
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 5)[0];
  video::VideoConfig vcfg = video::default_video_config();
  vcfg.duration_s = 40.0;
  const video::Video video(vcfg);
  const auto abr = abr::make_abr("mpc");
  const NetworkPath path(gtbw, 0.08);
  sim::SessionLog log = sim::run_session(video, *abr, path).log;
  log.chunks.at(9).tcp_at_start.cwnd_segments = 0.0;
  return log;
}

TEST(RoundCount, ZeroWindowLogIsRefusedInsteadOfHanging) {
  const sim::SessionLog log = zero_window_log();
  ASSERT_EQ(log.size(), 20u);
  const TcpConfig cfg;
  const double size = log.chunks[9].size_bytes;
  TcpState nan_window = log.chunks[9].tcp_at_start;
  nan_window.cwnd_segments = std::numeric_limits<double>::quiet_NaN();
  for (const TcpState& w : {log.chunks[9].tcp_at_start, nan_window}) {
    EXPECT_THROW(estimate_throughput_mbps(3.0, w, size, cfg),
                 ContractViolation);
    EXPECT_THROW(estimate_throughput_mbps(0.0, w, size, cfg),
                 ContractViolation);
    namespace sk = math::simd_kernels;
    for (const sk::Mode mode : {sk::Mode::kForceScalar, sk::Mode::kForceSimd}) {
      const sk::ScopedMode scoped(mode);
      const std::vector<double> candidates = {0.0, 0.5, 3.0, 10.0};
      std::vector<double> out(candidates.size());
      EXPECT_THROW(estimate_throughput_batch(candidates, w, size, cfg, out),
                   ContractViolation);
    }
  }
  // The round counters themselves: the closed form defers a zero window
  // to the reference loop, whose precondition refuses it.
  EXPECT_THROW(detail::count_rounds_iterative(0.0, 10.0, 50.0, 100.0, cfg),
               ContractViolation);
  EXPECT_THROW(detail::count_rounds(0.0, 10.0, 50.0, 100.0, cfg),
               ContractViolation);
  EXPECT_THROW(detail::count_rounds_iterative(10.0, 10.0, 0.0, 100.0, cfg),
               ContractViolation);
  // End to end: inference reports the bad log instead of spinning.
  const core::InferenceEngine engine(core::VeritasConfig{});
  EXPECT_THROW((void)engine.infer(log), ContractViolation);
}


// Regression: an infinite cwnd with rto_s = 0 and a positive send gap.
// Slow-start restart fired (gap > rto), the gap never shrank (each pass
// subtracts rto_s = 0) and inf / 2 stayed above the floor, so the
// halving loop spun forever. The restart now refuses a non-finite window
// and a non-positive floor; a finite window, however large, reaches the
// floor.
TEST(RoundCount, InfiniteWindowRestartIsRefusedInsteadOfHanging) {
  const TcpConfig cfg;
  TcpState w;
  w.cwnd_segments = std::numeric_limits<double>::infinity();
  w.rto_s = 0.0;
  w.last_send_gap_s = 1.0;
  const double size = 1e6;
  EXPECT_THROW(estimate_throughput_mbps(3.0, w, size, cfg), ContractViolation);
  EXPECT_THROW(estimate_throughput_mbps(0.0, w, size, cfg), ContractViolation);
  namespace sk = math::simd_kernels;
  for (const sk::Mode mode : {sk::Mode::kForceScalar, sk::Mode::kForceSimd}) {
    const sk::ScopedMode scoped(mode);
    const std::vector<double> candidates = {0.0, 0.5, 3.0, 10.0};
    std::vector<double> out(candidates.size());
    EXPECT_THROW(estimate_throughput_batch(candidates, w, size, cfg, out),
                 ContractViolation);
  }

  // The same window with no restart (gap <= rto) is not refused: the
  // window already covers the pipe.
  TcpState idle_free = w;
  idle_free.last_send_gap_s = 0.0;
  EXPECT_EQ(estimate_throughput_mbps(3.0, idle_free, size, cfg), 3.0);

  // The largest finite window halves down to init_cwnd and terminates.
  TcpState huge = w;
  huge.cwnd_segments = std::numeric_limits<double>::max();
  TcpState restarted = huge;
  apply_slow_start_restart(restarted, cfg);
  EXPECT_EQ(restarted.cwnd_segments, cfg.init_cwnd);
  EXPECT_GT(estimate_throughput_mbps(3.0, huge, size, cfg), 0.0);

  // A floor that is not positive would let the window halve to 0 and
  // stay above a negative floor forever (or never apply, if NaN).
  for (const double floor : {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN()}) {
    TcpConfig bad_floor;
    bad_floor.init_cwnd = floor;
    TcpState finite = huge;
    EXPECT_THROW(apply_slow_start_restart(finite, bad_floor),
                 ContractViolation)
        << floor;
  }
}

}  // namespace
}  // namespace veritas::net
