// Test-only reference for abr::Mpc: RobustMPC with the plain exhaustive
// levels^horizon recursion that Mpc's pruned search must reproduce
// decision for decision. The predictor and the rollout arithmetic are
// written out independently of src/abr/mpc.cpp, in the same operation
// order, so an equality check against it is a check of the search.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "abr/abr.hpp"
#include "abr/mpc.hpp"
#include "util/expects.hpp"

namespace veritas::abr::testing {

class ReferenceMpc final : public AbrAlgorithm {
 public:
  explicit ReferenceMpc(MpcConfig config = {}) : config_(config) {}

  std::size_t choose_quality(const AbrContext& context) override {
    VERITAS_EXPECTS(context.video != nullptr);
    VERITAS_EXPECTS(context.next_chunk < context.video->num_chunks());
    const video::Video& video = *context.video;
    const std::size_t levels = video.num_qualities();
    const double predicted_mbps =
        std::max(predict_throughput(context), 1e-6);
    const double chunk_s = video.chunk_duration_s();
    const std::size_t remaining = video.num_chunks() - context.next_chunk;
    const std::size_t horizon = std::min(config_.horizon, remaining);

    double best_qoe = -std::numeric_limits<double>::infinity();
    std::size_t best_first = 0;

    auto rollout = [&](auto&& self, std::size_t depth, Rollout state,
                       std::size_t first) -> void {
      if (depth == horizon) {
        if (state.qoe > best_qoe) {
          best_qoe = state.qoe;
          best_first = first;
        }
        return;
      }
      const std::size_t chunk = context.next_chunk + depth;
      for (std::size_t quality = 0; quality < levels; ++quality) {
        const double size_bytes = video.chunk_size_bytes(chunk, quality);
        const double bitrate = video.bitrate_mbps(quality);
        const double download_s = size_bytes * 8.0 / 1e6 / predicted_mbps;
        const double stall = std::max(0.0, download_s - state.buffer_s);
        double buffer = std::max(0.0, state.buffer_s - download_s) + chunk_s;
        buffer = std::min(buffer, context.buffer_capacity_s);
        double qoe = state.qoe + bitrate - config_.rebuffer_penalty * stall;
        if (state.prev_bitrate >= 0.0) {
          qoe -= config_.switch_penalty *
                 std::abs(bitrate - state.prev_bitrate);
        }
        self(self, depth + 1, Rollout{buffer, qoe, bitrate},
             depth == 0 ? quality : first);
      }
    };

    Rollout initial;
    initial.buffer_s = context.buffer_s;
    initial.prev_bitrate =
        has_last_quality_ ? video.bitrate_mbps(last_quality_) : -1.0;
    rollout(rollout, 0, initial, 0);

    last_quality_ = best_first;
    has_last_quality_ = true;
    return best_first;
  }

  void reset() override {
    last_quality_ = 0;
    has_last_quality_ = false;
    past_prediction_errors_.clear();
    last_prediction_mbps_ = 0.0;
    has_last_prediction_ = false;
  }

  std::string name() const override { return "reference_mpc"; }

 private:
  struct Rollout {
    double buffer_s = 0.0;
    double qoe = 0.0;
    double prev_bitrate = -1.0;
  };

  double predict_throughput(const AbrContext& context) {
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
        context.history, config_.throughput_window,
        config_.safety_fallback_mbps);
    last_prediction_mbps_ = hm;
    has_last_prediction_ = true;
    if (!config_.robust || past_prediction_errors_.empty()) return hm;
    const double max_err = *std::max_element(past_prediction_errors_.begin(),
                                             past_prediction_errors_.end());
    return hm / (1.0 + max_err);
  }

  MpcConfig config_;
  std::size_t last_quality_ = 0;
  bool has_last_quality_ = false;
  std::vector<double> past_prediction_errors_;
  double last_prediction_mbps_ = 0.0;
  bool has_last_prediction_ = false;
};

}  // namespace veritas::abr::testing
