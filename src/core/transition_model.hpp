// GTBW transition model (paper Eq. 2): a row-stochastic matrix A over the
// quantized state space plus an initial distribution u.
//
// The paper's evaluation uses a tridiagonal A (bandwidth prefers to stay,
// may drift one ε step per δ window) and a uniform u. Embedded
// transitions between chunks separated by Δ windows use A^Δ (paper §3.2,
// "Evolution of the embedded GTBW").
//
// Every power A^Δ is served as a padded matrix (rows padded to the SIMD
// lane quantum math::kRowPadDoubles, pad columns 0) together with the
// exact non-zero support of each of its rows and columns: half-open
// [lo, hi) ranges scanned from the computed matrix, never assumed from
// the prior, so a dense or retrained A simply gets full ranges while the
// paper's tridiagonal A^Δ gets at most 2Δ+1 entries per row. The EHMM
// kernels restrict their inner loops to these ranges (see
// math/simd_kernels.hpp), which is exact: every skipped term is a zero.
//
// All powers come from one squaring chain, squares_[m] = A^(2^m), built
// with the same Matrix::multiply_into calls math::matrix_power makes; a
// power multiplies the chain entries of its set bits in ascending order
// starting from the identity — the exact product matrix_power forms, so
// every A^Δ is bitwise equal to math::matrix_power(A, Δ).
//
// Δ < precomputed_powers() is served from a dense immutable table that
// also holds the transposed and elementwise-log layouts the kernels read
// (pads 0 / -inf); lookups are lock-free. Larger Δ go through a
// read-mostly shared_mutex memo (shared-lock hits, exclusive-lock
// first-compute, which is also the only place the chain grows after
// precompute) whose entries hold just the padded matrix and its supports;
// tables() builds the transposed or log layout of such a step into the
// caller's per-lane StepLayouts. Either way a step reaches the kernels as
// the same DeltaTables, so every Δ takes one code path. The dense table
// size is configurable per engine (VeritasConfig::precomputed_powers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <span>
#include <vector>

#include "math/matrix.hpp"
#include "math/simd_kernels.hpp"

namespace veritas::core {

/// Priors available for A (ablation bench: bench_ablate_transition).
enum class TransitionPrior {
  kTridiagonal,  ///< paper default: stay / +-1 step
  kUniform,      ///< no temporal structure (what Baseline implicitly assumes)
  kBanded,       ///< geometric decay over a wider band
};

class TransitionModel {
 public:
  /// Takes an arbitrary row-stochastic A and initial distribution u of
  /// matching size.
  TransitionModel(math::Matrix a, std::vector<double> initial);

  TransitionModel(const TransitionModel& other);
  TransitionModel(TransitionModel&& other) noexcept;
  TransitionModel& operator=(const TransitionModel& other);
  TransitionModel& operator=(TransitionModel&& other) noexcept;

  /// Paper default: P(stay) = stay_prob, P(+-ε) split evenly from the
  /// rest; rows renormalized at the boundaries. Uniform u.
  static TransitionModel tridiagonal(std::size_t states,
                                     double stay_prob = 0.8);

  /// Uniform A and u.
  static TransitionModel uniform(std::size_t states);

  /// Band of half-width `band` with geometric decay `decay` per step off
  /// the diagonal. Uniform u.
  static TransitionModel banded(std::size_t states, std::size_t band,
                                double decay = 0.5);

  std::size_t states() const noexcept { return a_.rows(); }
  const math::Matrix& matrix() const noexcept { return a_; }
  std::span<const double> initial() const noexcept { return initial_; }

  /// Builds the dense power table for Δ = 0..max_delta. Not thread-safe;
  /// call once (e.g. at Ehmm construction) before sharing the model
  /// across threads. Idempotent: only grows the table.
  void precompute_powers(std::size_t max_delta);

  /// Number of dense entries (Δ < precomputed_powers() is lock-free).
  std::size_t precomputed_powers() const noexcept { return dense_.size(); }

  using Support = math::simd_kernels::Support;

  /// A^Δ with its exact supports. Every field is always set; references
  /// stay valid for the model's lifetime.
  struct PowerView {
    const math::Matrix& p;          ///< A^Δ, rows padded, pad columns 0
    std::span<const Support> rows;  ///< rows[i]: non-zero columns of row i
    std::span<const Support> cols;  ///< cols[j]: non-zero rows of column j
  };

  /// A^delta (delta = 0 yields the identity) plus supports (one entry per
  /// padded column; pads and all-zero rows/columns are empty). Lock-free
  /// inside the dense table; beyond it, a shared-lock memo find with
  /// exclusive-lock first-compute.
  PowerView power_view(std::size_t delta) const;

  /// power_view(delta).p.
  const math::Matrix& power(std::size_t delta) const;

  /// The matrix a step's kernel tables describe: A^Δ itself (forward,
  /// backward) or its elementwise log (Viterbi).
  enum class Domain { kProbability, kLog };

  /// Per-lane buffers for the layouts a memo entry does not store. Each
  /// layout remembers which power it was built from, so consecutive
  /// steps (and sessions) with the same long gap build it once. Use one
  /// per thread (Ehmm::Scratch holds one).
  class StepLayouts {
   private:
    friend class TransitionModel;
    math::Matrix t_;      ///< transposed A^Δ
    math::Matrix log_p_;  ///< log A^Δ
    math::Matrix log_t_;  ///< log A^Δ, transposed
    std::uint64_t t_of_ = 0;    ///< Power::id the transposed layout holds
    std::uint64_t log_of_ = 0;  ///< Power::id the log layouts hold
  };

  /// Kernel tables for one step with window gap `delta`: the matrix of
  /// `domain` in both orientations plus the supports. Dense entries are
  /// served in place; for memo entries the missing layouts are built
  /// into `step` (whose buffers the returned pointers then reference
  /// until the next call with the same `step`).
  math::simd_kernels::DeltaTables tables(std::size_t delta, Domain domain,
                                         StepLayouts& step) const;

 private:
  /// One computed power. `id` is process-unique per computed content
  /// (copies of a model share it, since they share the bits), which is
  /// what lets StepLayouts tell a stale layout from a reusable one.
  struct Power {
    math::Matrix p;
    std::vector<Support> rows;
    std::vector<Support> cols;
    std::vector<Support> row_blocks;  ///< see DeltaTables
    std::vector<Support> col_blocks;
    std::uint64_t id = 0;
  };
  struct DenseEntry {
    Power power;
    math::Matrix t;
    math::Matrix log_p;
    math::Matrix log_t;
  };

  /// A^delta from the squaring chain, growing the chain as needed.
  /// Caller holds overflow_mutex_ exclusively or is single-threaded.
  Power compute_power(std::size_t delta) const;
  const Power& overflow_power(std::size_t delta) const;

  math::Matrix a_;
  std::vector<double> initial_;
  std::vector<DenseEntry> dense_;  ///< index = Δ; immutable once built
  /// squares_[m] = A^(2^m), unpadded, exactly as math::matrix_power
  /// forms them. Grown by precompute_powers and under the exclusive lock.
  mutable std::vector<math::Matrix> squares_;
  /// compute_power's product buffers, under the same guard as squares_.
  mutable math::Matrix chain_product_;
  mutable math::Matrix chain_scratch_;
  /// Read-mostly memo guard: after a gap length is memoized once, every
  /// later lookup of it is a shared-lock map find, so concurrent serving
  /// lanes replaying long-gap sessions no longer serialize on each
  /// other. Writers (first sighting of a delta) take the exclusive lock
  /// and re-check under it.
  mutable std::shared_mutex overflow_mutex_;
  /// Memo for Δ beyond the dense table. std::map: node stability keeps
  /// returned references valid across later insertions.
  mutable std::map<std::size_t, Power> overflow_;
};

}  // namespace veritas::core
