#include "core/reconstruction.hpp"

#include <algorithm>
#include <cmath>

#include "util/expects.hpp"

namespace veritas::core {

trace::BandwidthTrace states_to_trace(
    const StateSpace& space, std::span<const std::size_t> states,
    std::span<const ChunkObservation> observations, double delta_s,
    double total_duration_s, Interpolation interpolation) {
  VERITAS_EXPECTS(!states.empty());
  VERITAS_EXPECTS(states.size() == observations.size());
  VERITAS_EXPECTS(delta_s > 0.0);
  VERITAS_EXPECTS(total_duration_s > 0.0);
  // Refused before the per-window allocation (and before the size_t
  // cast, which a huge quotient would overflow).
  VERITAS_EXPECTS(total_duration_s / delta_s <=
                  static_cast<double>(kMaxSessionWindows));

  const auto total_windows = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(total_duration_s / delta_s)), 1);

  // Known values at windows containing chunk starts (last chunk wins).
  constexpr double kUnknown = -1.0;
  std::vector<double> values(total_windows, kUnknown);
  for (std::size_t n = 0; n < states.size(); ++n) {
    VERITAS_EXPECTS(states[n] < space.size());
    const auto w = std::min(
        static_cast<std::size_t>(observations[n].start_s / delta_s),
        total_windows - 1);
    values[w] = space.value(states[n]);
  }

  // Fill leading unknowns with the first known value.
  std::size_t first_known = 0;
  while (values[first_known] == kUnknown) ++first_known;  // >= 1 known
  for (std::size_t w = 0; w < first_known; ++w) values[w] = values[first_known];

  // Fill interior gaps and the tail.
  std::size_t prev_known = first_known;
  for (std::size_t w = first_known + 1; w < total_windows; ++w) {
    if (values[w] == kUnknown) continue;
    const std::size_t gap = w - prev_known;
    if (gap > 1) {
      for (std::size_t g = 1; g < gap; ++g) {
        switch (interpolation) {
          case Interpolation::kLinear: {
            const double fraction =
                static_cast<double>(g) / static_cast<double>(gap);
            values[prev_known + g] =
                values[prev_known] +
                fraction * (values[w] - values[prev_known]);
            break;
          }
          case Interpolation::kHold:
            values[prev_known + g] = values[prev_known];
            break;
        }
      }
    }
    prev_known = w;
  }
  for (std::size_t w = prev_known + 1; w < total_windows; ++w) {
    values[w] = values[prev_known];
  }

  return trace::BandwidthTrace(delta_s, std::move(values));
}

}  // namespace veritas::core
