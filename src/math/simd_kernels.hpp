// Runtime-dispatched kernel table for the EHMM hot loops.
//
// Three implementations of the same KernelOps interface ship in every
// binary:
//
//   * scalar_ops() — the reference loops, compiled with baseline flags in
//     math/simd_kernels_scalar.cpp. Bit-identical to the pre-SIMD
//     implementations: per-element operation order is preserved exactly.
//   * simd_ops()  — vectorized over the *state* (output) dimension with
//     the lane layer in math/simd.hpp, compiled in
//     math/simd_kernels_simd.cpp with -mavx2 on x86 when available
//     (NEON on AArch64, SSE2 otherwise).
//   * avx512_ops() — the same shared kernel body compiled with
//     -mavx512f -mavx512dq in math/simd_kernels_avx512.cpp: 8 lanes,
//     the same exact arithmetic.
//
// A vector table is nullptr when the build disabled SIMD
// (-DVERITAS_SIMD=OFF), the toolchain lacks its ISA flags, or the
// running CPU lacks the ISA (checked once via cpuid).
//
// Every table honours one contract. The vector kernels vectorize across
// outputs, broadcast the sequential input and never fuse a mul+add, so
// each output's accumulation order and rounding match the scalar loop:
// viterbi/forward/backward steps, emission rows and estimate_batch are
// bit-identical to scalar_ops() on every table, and exp_rows/log_rows
// (polynomial approximations, ~2 ulp from libm) are bit-identical
// across the vector tables. Only pair_total (a lane-reassociated global
// sum, so its bits depend on the lane width) differs, within the
// tolerances tested in tests/core/kernel_equivalence_test.cpp.
//
// Dispatch is a function of the CPU: active_ops() resolves avx512_ops(),
// then simd_ops(), then the scalar table. The VERITAS_SIMD environment
// variable ("off" / "scalar" / "0") vetoes vectorization; the
// process-global mode (set_mode / ScopedMode) pins one table for tests
// and benches.
#pragma once

#include <cstddef>
#include <cstdint>

namespace veritas::math::simd_kernels {

/// CPU feature bits a kernel table needs at run time.
inline constexpr unsigned kCpuBaseline = 0;
inline constexpr unsigned kCpuAvx2 = 1u << 0;
inline constexpr unsigned kCpuAvx512 = 1u << 1;  ///< AVX-512 F + DQ

/// Exact non-zero range [lo, hi) of one row or column of a transition
/// power (see core/transition_model.hpp); lo == hi == 0 when empty.
struct Support {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

/// Rows / columns summarized by one DeltaTables::row_blocks / col_blocks
/// entry: math::kRowPadDoubles, a multiple of every lane width.
inline constexpr std::size_t kSupportBlock = 8;

/// Padded row-major views of one k x k matrix M in both orientations:
/// A^Δ for the sum-product kernels, log A^Δ for viterbi_step. Both tables
/// share `stride`, a multiple of math::kRowPadDoubles; pad columns hold
/// the neutral element (0 in A^Δ, -inf in its log), so full-lane loads
/// read neutral values without masking.
///
/// `rows` / `cols` (stride entries each, pads empty) carry the exact
/// non-zero support of every row / column of A^Δ, and `row_blocks` /
/// `col_blocks` (stride / kSupportBlock entries) the union of each run of
/// kSupportBlock of them. With them set, each kernel's inner j-loop
/// visits only where the entries it reads are non-zero: the scalar loops
/// the support of output i, the vector loops the union of the supports
/// of a column block's outputs (read off the precomputed unions of the
/// kSupportBlock runs the block covers). That is
/// bit-identical to the full loop on every tier: a skipped sum-product
/// term is x·0 = +0, which leaves a finite non-negative accumulator
/// unchanged, and a skipped Viterbi candidate is -inf,
/// which never wins the strict first-max (the vector Viterbi also keeps
/// its 4-wide j grouping aligned to the full loop's). Null supports mean
/// the full range [0, k) for every output (set all four or none).
struct DeltaTables {
  const double* p = nullptr;      ///< row j: M(j, ·)
  const double* t = nullptr;      ///< row i: M(·, i) (transposed)
  const Support* rows = nullptr;  ///< rows[i]: non-zero columns of row i
  const Support* cols = nullptr;  ///< cols[j]: non-zero rows of column j
  /// row_blocks[b]: union of rows[b·kSupportBlock, (b+1)·kSupportBlock)
  const Support* row_blocks = nullptr;
  /// col_blocks[b]: union of cols[b·kSupportBlock, (b+1)·kSupportBlock)
  const Support* col_blocks = nullptr;
  std::size_t stride = 0;
};

/// Inputs of one batched TCP-estimator call (paper Algorithm 4, the
/// emission kernel f): the post-slow-start-restart connection snapshot
/// plus the TcpConfig fields the window-growth law reads, flattened to
/// plain doubles so the kernel layer stays free of net types. Filled by
/// net::estimate_throughput_batch, which owns the SSR application and
/// the candidate-independent precomputation.
struct TcpBatchParams {
  double cwnd0 = 0.0;      ///< post-SSR congestion window (segments)
  double ssthresh = 0.0;   ///< post-SSR slow-start threshold (segments)
  double min_rtt_s = 0.0;  ///< path minimum RTT
  double mss_bytes = 0.0;
  double rwnd_segments = 0.0;      ///< receive-window clamp on cwnd
  double init_cwnd = 0.0;          ///< BBR growth-law floor
  double hystart_bdp_fraction = 0.0;
  double data_segments = 0.0;      ///< ceil(size_bytes / mss_bytes)
  double size_bytes = 0.0;
  bool bbr = false;      ///< kBbrLike growth law (else cubic-like)
  bool hystart = false;  ///< delay-based slow-start exit enabled
};

/// One table of kernel entry points. All row pointers refer to padded
/// rows (stride multiple of math::kRowPadDoubles) unless noted.
struct KernelOps {
  const char* name = "";  ///< "scalar", "avx512", "avx2", "sse2", "neon"
  unsigned cpu_features = kCpuBaseline;

  /// Batched emission log-density: out[i] = log Normal(y; means[i], σ)
  /// for i < k, computed as -0.5 z² - log σ - 0.5 log 2π with z =
  /// (y - means[i]) / σ — the exact operation order of
  /// math::log_normal_pdf, so scalar and SIMD agree bitwise. Pads
  /// out[k..stride) with -inf. `means` only needs k readable entries.
  void (*emission_log_pdf_row)(double y, const double* means, std::size_t k,
                               std::size_t stride, double sigma,
                               double log_sigma, double half_log_2pi,
                               double* out);

  /// out[i] = exp(in[i] - shift) for i < n (any n; the hot path passes a
  /// full padded stride). SIMD uses the vexp approximation.
  void (*exp_rows)(const double* in, double shift, std::size_t n,
                   double* out);

  /// out[i] = log(in[i]) for i < n, std::log semantics (0 → -inf,
  /// negative → NaN). SIMD uses the vlog approximation.
  void (*log_rows)(const double* in, std::size_t n, double* out);

  /// One max-plus Viterbi step over `a` = the log-domain tables of A^Δ:
  /// for each state i < k,
  ///   curr[i] = max_j (prev[j] + log A^Δ(j, i)) + e_n[i]
  /// with back[i] = the smallest argmax j (first-strictly-greater update
  /// rule). prev/e_n/curr/back are padded rows; pads of curr end up -inf.
  /// Bit-identical between scalar and SIMD tables.
  void (*viterbi_step)(const double* prev, const DeltaTables& a,
                       std::size_t k, const double* e_n, double* curr,
                       std::uint32_t* back);

  /// One sum-product forward step: row[i] = (Σ_j prev[j] A^Δ(j, i)) ·
  /// em_n[i], accumulated in ascending j per output. Bit-identical
  /// between scalar and SIMD tables. Pads of row end up 0.
  void (*forward_step)(const double* prev, const DeltaTables& a,
                       std::size_t k, const double* em_n, double* row);

  /// One backward step: beta_n[i] = (Σ_j A^Δ(i, j) em_next[j]
  /// beta_next[j]) / scale, per-term order ((a·em)·beta), ascending j.
  /// Bit-identical between scalar and SIMD tables. Pads end up 0.
  /// When pair_total is non-null, additionally accumulates the pair
  /// posterior normalizer Σ_{i,j} alpha_n[i] A^Δ(i,j) em_next[j]
  /// beta_next[j] into *pair_total in the same sweep (the unscaled
  /// backward dot reused — one stream over A^Δ instead of two). The
  /// scalar table keeps the historical i-major j-minor term order
  /// (bit-identical to a separate pass); the vector tables reassociate
  /// the sum across lanes (ulp-level, lane-width-dependent difference).
  void (*backward_step)(const DeltaTables& a, std::size_t k,
                        const double* em_next, const double* beta_next,
                        double scale, double* beta_n, const double* alpha_n,
                        double* pair_total);

  /// Pair-posterior normalizer Σ_{i,j} alpha[i] A^Δ(i,j) em_next[j]
  /// beta_next[j]. The vector tables reassociate the global sum across
  /// lanes (ulp-level, lane-width-dependent difference from scalar).
  double (*pair_total)(const double* alpha_n, const DeltaTables& a,
                       std::size_t k, const double* em_next,
                       const double* beta_next);

  /// Batched TCP throughput estimator f across the candidate dimension:
  /// out[i] = f(candidates[i], W, S) for i < k, *bit-identical* to k
  /// scalar net::estimate_throughput_mbps calls on the pre-SSR state —
  /// the vector table evolves the TCP window in struct-of-arrays form
  /// across candidate lanes, replaying each lane's scalar operation
  /// order exactly (IEEE-exact lane arithmetic; the round count is an
  /// integer, so jumped phases only need the same count, enforced by the
  /// same rounding-slack guards as net::detail::count_rounds).
  ///
  /// Null in the scalar table: the scalar reference for a batch *is* the
  /// per-candidate composition, and net::estimate_throughput_batch runs
  /// that loop itself whenever this entry is null — so a forced-scalar
  /// or VERITAS_SIMD=OFF run takes literally the historical code path.
  /// `candidates` and `out` need only k valid entries (no padding).
  void (*estimate_batch)(const double* candidates, std::size_t k,
                         const TcpBatchParams& p, double* out);
};

/// The reference table (always available).
const KernelOps& scalar_ops();

/// The vectorized table, or nullptr when SIMD is compiled out or the CPU
/// lacks the compiled ISA. Stable for the process lifetime.
const KernelOps* simd_ops();

/// The 8-lane AVX-512 table, or nullptr when the toolchain could not
/// compile it, SIMD is compiled out, or the CPU lacks AVX-512F+DQ.
/// Stable for the process lifetime.
const KernelOps* avx512_ops();

/// The table the EHMM should use right now (mode / env / CPU resolved).
const KernelOps& active_ops();

/// Name of the table active_ops() currently returns — the *resolved*
/// kernel tier ("scalar" / "sse2" / "neon" / "avx2" / "avx512"), not the
/// compile switch; serve/bench output records this.
const char* backend_name();

/// Which table active_ops() returns. kAuto is the only production
/// setting; the forced values pin one table for tests and benches.
enum class Mode {
  kAuto,          ///< widest available table (default; env var may veto)
  kForceScalar,   ///< reference loops regardless of CPU
  kForceSimd,     ///< simd_ops() even if env said off (no-op when null)
  kForceAvx512,   ///< avx512_ops(), falling back to simd then scalar
};
Mode mode() noexcept;
void set_mode(Mode m) noexcept;

/// RAII mode override for tests and benchmarks.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m) : saved_(mode()) { set_mode(m); }
  ~ScopedMode() { set_mode(saved_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode saved_;
};

namespace detail {
/// Defined in math/simd_kernels_simd.cpp: the compiled vector table, or
/// nullptr when VERITAS_SIMD_DISABLED. Constant-initialized data — safe
/// to read on any CPU (the dispatcher checks cpu_features before use).
extern const KernelOps* const compiled_simd_table;
/// Defined in math/simd_kernels_avx512.cpp: the compiled AVX-512 table,
/// or nullptr when the toolchain lacks -mavx512f/-mavx512dq or
/// VERITAS_SIMD_DISABLED. Same constant-initialized safety contract.
extern const KernelOps* const compiled_avx512_table;
}  // namespace detail

}  // namespace veritas::math::simd_kernels
