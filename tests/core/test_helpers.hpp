// Shared fixtures for core (EHMM) tests: synthetic observation sequences
// with controlled timing, plus small hand-checkable model builders.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/ehmm.hpp"
#include "core/observation.hpp"
#include "net/tcp_model.hpp"
#include "net/network_path.hpp"
#include "sim/session.hpp"
#include "abr/abr_factory.hpp"
#include "trace/bandwidth_trace.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::core::testing {

/// An observation for a chunk of `size_bytes` starting at `start_s` whose
/// observed throughput is `y_mbps`, with a steady (warm) TCP state large
/// enough that the estimator is in its saturated branch.
inline ChunkObservation warm_observation(double start_s, double y_mbps,
                                         double size_bytes = 2e6) {
  ChunkObservation obs;
  obs.throughput_mbps = y_mbps;
  obs.size_bytes = size_bytes;
  obs.start_s = start_s;
  obs.end_s = start_s + size_bytes * 8.0 / 1e6 / y_mbps;
  obs.tcp.cwnd_segments = 10000.0;
  obs.tcp.ssthresh_segments = 5000.0;
  obs.tcp.rto_s = 0.2;
  obs.tcp.min_rtt_s = 0.08;
  obs.tcp.rtt_s = 0.08;
  obs.tcp.last_send_gap_s = 0.0;
  return obs;
}

/// Small EHMM over states {0, 1, 2, 3} Mbps (ε = 1), δ = 5 s.
inline Ehmm small_ehmm(double sigma = 0.5, double stay = 0.8) {
  StateSpace space(1.0, 3.0);
  TransitionModel transition = TransitionModel::tridiagonal(space.size(), stay);
  EmissionModel emission(sigma);
  return Ehmm(std::move(space), std::move(transition), std::move(emission),
              5.0);
}

/// The N x K emission log-probability matrix of `obs` under `ehmm`,
/// (n, i) -> log P(Y_n | W_sn, S_n, C = value(i)), computed through the
/// production row path with a private estimator cache.
inline math::Matrix log_emission_matrix(const Ehmm& ehmm,
                                        std::span<const ChunkObservation> obs) {
  EstimatorCache cache;
  EstimatorCache::L1 l1;
  std::vector<const double*> rows;
  std::vector<std::shared_ptr<const EstimatorCache::Entry>> refs;
  ehmm.emission_mean_rows_into(obs, cache, l1, rows, refs);
  math::Matrix logs;
  ehmm.emission_log_probs_from_rows_into(obs, rows, logs);
  return logs;
}

/// Row-stochastic tridiagonal A over k >= 2 states whose column `zero`
/// is all zero (its mass moved to a neighbour), so state `zero` is
/// unreachable under every A^Δ with Δ >= 1. Uniform u.
inline TransitionModel zero_column_transition(std::size_t k,
                                              std::size_t zero) {
  math::Matrix a = TransitionModel::tridiagonal(k).matrix();
  const std::size_t into = zero + 1 < k ? zero + 1 : zero - 1;
  for (std::size_t i = 0; i < k; ++i) {
    a(i, into) += a(i, zero);
    a(i, zero) = 0.0;
  }
  return TransitionModel(std::move(a),
                         std::vector<double>(k, 1.0 / double(k)));
}

/// Runs an MPC session over `gtbw` and returns its log (deployment step).
inline sim::SessionLog deployed_log(const trace::BandwidthTrace& gtbw,
                                    std::size_t chunks = 60) {
  video::VideoConfig cfg = video::default_video_config();
  cfg.duration_s = double(chunks) * cfg.chunk_duration_s;
  const video::Video video(cfg);
  auto abr = abr::make_abr("mpc");
  const net::NetworkPath path(gtbw, 0.08);
  return sim::run_session(video, *abr, path).log;
}

}  // namespace veritas::core::testing
