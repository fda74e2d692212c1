// Reconstruction of a full GTBW time series from states at chunk starts.
//
// The sampler yields one GTBW state per *chunk*; the counterfactual
// replay needs a value for every δ-window of the session, including off
// periods with no downloads. The paper interpolates the intermediate
// windows from the sampled chunk-start states (§3.2, Algorithm 1).
#pragma once

#include <span>
#include <vector>

#include "core/observation.hpp"
#include "core/state_space.hpp"
#include "trace/bandwidth_trace.hpp"

namespace veritas::core {

/// How windows without chunk starts are filled.
enum class Interpolation {
  kLinear,  ///< linear in bandwidth between surrounding known windows
  kHold,    ///< hold the previous known value
};

/// Builds a δ-grid bandwidth trace covering [0, total_duration_s) from
/// per-chunk state indices. When several chunks start in one window the
/// last one wins. Requires states.size() == observations.size() >= 1 and
/// total_duration_s / delta_s <= kMaxSessionWindows.
trace::BandwidthTrace states_to_trace(
    const StateSpace& space, std::span<const std::size_t> states,
    std::span<const ChunkObservation> observations, double delta_s,
    double total_duration_s, Interpolation interpolation = Interpolation::kLinear);

}  // namespace veritas::core
