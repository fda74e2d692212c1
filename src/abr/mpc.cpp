#include "abr/mpc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expects.hpp"

namespace veritas::abr {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Buffer/QoE rollout state after a prefix of a lookahead plan.
struct Rollout {
  double buffer_s = 0.0;
  double qoe = 0.0;
  double prev_bitrate = -1.0;  ///< < 0 means "no previous chunk"
};

/// What a rollout step needs besides its state and the chunk it plays.
struct Dynamics {
  double chunk_s;
  double capacity_s;
  double rebuffer_penalty;
  double switch_penalty;
};

/// Downloads one chunk of `bitrate` Mbps taking `download_s` seconds:
/// the one definition of the buffer and QoE law, used by both the search
/// and the constant-quality floor so equal plans score bit-identically.
/// QoE = bitrate - rebuffer_penalty * stall - switch_penalty * |Δbitrate|.
inline Rollout step(const Rollout& state, double download_s, double bitrate,
                    const Dynamics& dyn) {
  const double stall = std::max(0.0, download_s - state.buffer_s);
  double buffer = std::max(0.0, state.buffer_s - download_s) + dyn.chunk_s;
  buffer = std::min(buffer, dyn.capacity_s);
  double qoe = state.qoe + bitrate - dyn.rebuffer_penalty * stall;
  if (state.prev_bitrate >= 0.0) {
    qoe -= dyn.switch_penalty * std::abs(bitrate - state.prev_bitrate);
  }
  return Rollout{buffer, qoe, bitrate};
}

/// Depth-first branch-and-bound over quality plans (see mpc.hpp for the
/// bound and why pruning leaves the decision unchanged). Tables are
/// row-major horizon x levels.
struct HorizonSearch {
  const double* bitrate;
  const double* download_s;
  const double* min_stall_cost;
  double* pruned_up_to;  ///< [d]: largest child QoE pruned at depth d
  std::size_t levels;
  std::size_t horizon;
  Dynamics dyn;
  double floor = kNegInf;
  double best_qoe = kNegInf;
  std::size_t best_first = 0;

  /// Upper bound U on the QoE of every leaf below a node at `depth`
  /// whose prefix scored `qoe`.
  double upper_bound(std::size_t depth, double qoe) const {
    for (; depth < horizon; ++depth) {
      const double* cost = min_stall_cost + depth * levels;
      double best = kNegInf;
      for (std::size_t q = 0; q < levels; ++q) {
        best = std::max(best, qoe + bitrate[q] - cost[q]);
      }
      qoe = best;
    }
    return qoe;
  }

  void visit(std::size_t depth, const Rollout& state, std::size_t first) {
    const double* download = download_s + depth * levels;
    if (depth + 1 == horizon) {
      for (std::size_t q = 0; q < levels; ++q) {
        const double qoe = step(state, download[q], bitrate[q], dyn).qoe;
        if (qoe > best_qoe) {
          best_qoe = qoe;
          best_first = depth == 0 ? q : first;
        }
      }
      return;
    }
    // U is non-decreasing in the child's QoE and the threshold never
    // decreases, so a child scoring at most one already pruned at the
    // same depth is pruned without evaluating U.
    double& watermark = pruned_up_to[depth + 1];
    for (std::size_t q = 0; q < levels; ++q) {
      const Rollout child = step(state, download[q], bitrate[q], dyn);
      if (child.qoe <= watermark) continue;
      if (upper_bound(depth + 1, child.qoe) < std::max(best_qoe, floor)) {
        watermark = std::max(watermark, child.qoe);
        continue;
      }
      visit(depth + 1, child, depth == 0 ? q : first);
    }
  }
};

}  // namespace

Mpc::Mpc(MpcConfig config) : config_(config) {
  VERITAS_EXPECTS(config_.horizon >= 1);
  VERITAS_EXPECTS(config_.throughput_window >= 1);
  VERITAS_EXPECTS(config_.safety_fallback_mbps > 0.0);
  // The search's upper bound drops or under-counts both penalty terms,
  // which is only safe for finite, non-negative penalties.
  VERITAS_EXPECTS(std::isfinite(config_.rebuffer_penalty) &&
                  config_.rebuffer_penalty >= 0.0);
  VERITAS_EXPECTS(std::isfinite(config_.switch_penalty) &&
                  config_.switch_penalty >= 0.0);
}

void Mpc::reset() {
  last_quality_ = 0;
  has_last_quality_ = false;
  past_prediction_errors_.clear();
  last_prediction_mbps_ = 0.0;
  has_last_prediction_ = false;
}

double Mpc::predict_throughput(const AbrContext& context) {
  // Track the realized error of the previous prediction (RobustMPC
  // discounts the harmonic mean by the recent maximum relative error).
  if (has_last_prediction_ && !context.history.empty()) {
    const double actual = context.history.back().throughput_mbps();
    if (actual > 0.0) {
      past_prediction_errors_.push_back(
          std::abs(last_prediction_mbps_ - actual) / actual);
      if (past_prediction_errors_.size() > config_.throughput_window) {
        past_prediction_errors_.erase(past_prediction_errors_.begin());
      }
    }
  }
  const double hm = harmonic_mean_throughput(
      context.history, config_.throughput_window, config_.safety_fallback_mbps);
  last_prediction_mbps_ = hm;
  has_last_prediction_ = true;
  if (!config_.robust || past_prediction_errors_.empty()) return hm;
  const double max_err = *std::max_element(past_prediction_errors_.begin(),
                                           past_prediction_errors_.end());
  return hm / (1.0 + max_err);
}

std::size_t Mpc::choose_quality(const AbrContext& context) {
  VERITAS_EXPECTS(context.video != nullptr);
  VERITAS_EXPECTS(context.next_chunk < context.video->num_chunks());
  const video::Video& video = *context.video;
  const std::size_t levels = video.num_qualities();
  const double predicted_mbps =
      std::max(predict_throughput(context), 1e-6);
  const std::size_t remaining = video.num_chunks() - context.next_chunk;
  const std::size_t horizon = std::min(config_.horizon, remaining);
  const Dynamics dyn{video.chunk_duration_s(), context.buffer_capacity_s,
                     config_.rebuffer_penalty, config_.switch_penalty};

  bitrate_.resize(levels);
  download_s_.resize(horizon * levels);
  min_stall_cost_.resize(horizon * levels);
  pruned_up_to_.assign(horizon, kNegInf);
  for (std::size_t q = 0; q < levels; ++q) bitrate_[q] = video.bitrate_mbps(q);
  for (std::size_t d = 0; d < horizon; ++d) {
    for (std::size_t q = 0; q < levels; ++q) {
      const double size_bytes =
          video.chunk_size_bytes(context.next_chunk + d, q);
      const double download_s = size_bytes * 8.0 / 1e6 / predicted_mbps;
      download_s_[d * levels + q] = download_s;
      // The least stall penalty any plan pays here at depth d >= 1 (row 0
      // is never read): every buffer after a step is at most capacity.
      min_stall_cost_[d * levels + q] =
          dyn.rebuffer_penalty *
          std::max(0.0, download_s - dyn.capacity_s);
    }
  }

  Rollout root;
  root.buffer_s = context.buffer_s;
  root.prev_bitrate =
      has_last_quality_ ? video.bitrate_mbps(last_quality_) : -1.0;

  HorizonSearch search{bitrate_.data(),        download_s_.data(),
                       min_stall_cost_.data(), pruned_up_to_.data(),
                       levels,                 horizon,
                       dyn};
  // The floor: the best constant-quality plan, itself a leaf.
  for (std::size_t q = 0; q < levels; ++q) {
    Rollout plan = root;
    for (std::size_t d = 0; d < horizon; ++d) {
      plan = step(plan, download_s_[d * levels + q], bitrate_[q], dyn);
    }
    if (plan.qoe > search.floor) search.floor = plan.qoe;
  }
  search.visit(0, root, 0);

  last_quality_ = search.best_first;
  has_last_quality_ = true;
  return search.best_first;
}

}  // namespace veritas::abr
