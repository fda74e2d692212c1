// MPC: model-predictive-control bitrate adaptation (Yin et al.,
// SIGCOMM'15), the paper's default deployed algorithm (Setting A).
//
// RobustMPC variant: predicts throughput as the harmonic mean of recent
// observations discounted by the recent maximum relative prediction
// error, then searches quality sequences over a lookahead horizon for
// the one maximizing a QoE objective (bitrate reward, rebuffering
// penalty, switching penalty) under simulated buffer dynamics.
//
// The search returns exactly the first quality of the first sequence,
// in depth-first order (qualities ascending at every depth), whose QoE
// is maximal — the answer of the exhaustive levels^horizon recursion —
// but skips subtrees that provably cannot reach that maximum:
//
// - U, an upper bound on every leaf below a node, starts at the node's
//   QoE and, for each remaining depth d, becomes
//   max_q fl(fl(U + bitrate[q]) - fl(rebuffer_penalty *
//   max(0, download_s[d][q] - capacity))), with each fl(.) rounded as
//   the rollout rounds it. Every buffer a rollout can hold after a step
//   is <= capacity, so every real stall is >= the stall used here; the
//   switch penalty is >= 0 and dropped; round-to-nearest is monotone.
//   Hence no leaf below the node exceeds U, in floating point, not just
//   in real arithmetic.
// - floor is the best QoE over the `levels` constant-quality plans,
//   computed with the same step function from the same root state, so
//   it is the QoE of an actual leaf.
//
// A subtree is skipped when U < max(best QoE so far, floor): each of its
// leaves scores strictly below the maximum, so the first maximal leaf is
// unchanged and so is the decision, bit for bit. U is a composition of
// monotone roundings and maxima, so it is non-decreasing in the node's
// QoE, and the threshold never decreases; a node scoring at most the
// QoE of one already skipped at the same depth is skipped without
// evaluating U.
//
// Precondition of the bound (enforced by Mpc::Mpc): rebuffer_penalty and
// switch_penalty are finite and >= 0.
#pragma once

#include <vector>

#include "abr/abr.hpp"

namespace veritas::abr {

struct MpcConfig {
  std::size_t horizon = 5;            ///< lookahead chunks
  std::size_t throughput_window = 5;  ///< harmonic-mean window
  double rebuffer_penalty = 8.0;      ///< QoE units per stalled second
  double switch_penalty = 1.0;        ///< per Mbps of bitrate change
  double safety_fallback_mbps = 1.0;  ///< predictor fallback with no history
  bool robust = true;                 ///< discount by max recent error
};

class Mpc final : public AbrAlgorithm {
 public:
  explicit Mpc(MpcConfig config = {});

  std::size_t choose_quality(const AbrContext& context) override;
  void reset() override;
  std::string name() const override { return config_.robust ? "mpc" : "mpc_fast"; }

 private:
  double predict_throughput(const AbrContext& context);

  MpcConfig config_;
  std::size_t last_quality_ = 0;
  bool has_last_quality_ = false;
  std::vector<double> past_prediction_errors_;
  double last_prediction_mbps_ = 0.0;
  bool has_last_prediction_ = false;

  // Per-decision search tables, reused across decisions (row d of the
  // horizon x levels tables is lookahead chunk next_chunk + d).
  std::vector<double> bitrate_;          ///< [q]: Mbps
  std::vector<double> download_s_;       ///< [d][q]: predicted download time
  std::vector<double> min_stall_cost_;   ///< [d][q]: penalty floor for U
  std::vector<double> pruned_up_to_;     ///< [d]: pruning watermark
};

}  // namespace veritas::abr
