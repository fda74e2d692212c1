#include "core/transition_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "math/distributions.hpp"
#include "util/expects.hpp"

namespace veritas::core {

TransitionModel::TransitionModel(math::Matrix a, std::vector<double> initial)
    : a_(std::move(a)), initial_(std::move(initial)) {
  VERITAS_EXPECTS(a_.rows() == a_.cols());
  VERITAS_EXPECTS(a_.is_row_stochastic(1e-6));
  VERITAS_EXPECTS(initial_.size() == a_.rows());
  double sum = 0.0;
  for (const double p : initial_) {
    VERITAS_EXPECTS(p >= 0.0);
    sum += p;
  }
  VERITAS_EXPECTS(sum > 0.999 && sum < 1.001);
}

TransitionModel::TransitionModel(const TransitionModel& other)
    : a_(other.a_), initial_(other.initial_), dense_(other.dense_) {
  const std::shared_lock lock(other.overflow_mutex_);
  squares_ = other.squares_;
  overflow_ = other.overflow_;
}

TransitionModel::TransitionModel(TransitionModel&& other) noexcept
    : a_(std::move(other.a_)),
      initial_(std::move(other.initial_)),
      dense_(std::move(other.dense_)),
      squares_(std::move(other.squares_)) {
  // No lock: moving from a model concurrently served to other threads is
  // a caller bug regardless of the memo.
  overflow_ = std::move(other.overflow_);
}

TransitionModel& TransitionModel::operator=(const TransitionModel& other) {
  if (this == &other) return *this;
  TransitionModel copy(other);
  *this = std::move(copy);
  return *this;
}

TransitionModel& TransitionModel::operator=(TransitionModel&& other) noexcept {
  if (this == &other) return *this;
  a_ = std::move(other.a_);
  initial_ = std::move(other.initial_);
  dense_ = std::move(other.dense_);
  squares_ = std::move(other.squares_);
  overflow_ = std::move(other.overflow_);
  return *this;
}

TransitionModel TransitionModel::tridiagonal(std::size_t states,
                                             double stay_prob) {
  VERITAS_EXPECTS(states >= 2);
  VERITAS_EXPECTS(stay_prob > 0.0 && stay_prob < 1.0);
  math::Matrix a(states, states, 0.0);
  const double step = (1.0 - stay_prob) / 2.0;
  for (std::size_t i = 0; i < states; ++i) {
    a(i, i) = stay_prob;
    if (i > 0) a(i, i - 1) = step;
    if (i + 1 < states) a(i, i + 1) = step;
    // Renormalize boundary rows.
    double row_sum = a(i, i);
    if (i > 0) row_sum += step;
    if (i + 1 < states) row_sum += step;
    a(i, i) += 1.0 - row_sum;
  }
  return TransitionModel(std::move(a),
                         std::vector<double>(states, 1.0 / double(states)));
}

TransitionModel TransitionModel::uniform(std::size_t states) {
  VERITAS_EXPECTS(states >= 2);
  const double p = 1.0 / static_cast<double>(states);
  return TransitionModel(math::Matrix(states, states, p),
                         std::vector<double>(states, p));
}

TransitionModel TransitionModel::banded(std::size_t states, std::size_t band,
                                        double decay) {
  VERITAS_EXPECTS(states >= 2);
  VERITAS_EXPECTS(band >= 1);
  VERITAS_EXPECTS(decay > 0.0 && decay < 1.0);
  math::Matrix a(states, states, 0.0);
  for (std::size_t i = 0; i < states; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < states; ++j) {
      const auto distance = i > j ? i - j : j - i;
      if (distance <= band) {
        a(i, j) = std::pow(decay, static_cast<double>(distance));
        row_sum += a(i, j);
      }
    }
    for (std::size_t j = 0; j < states; ++j) a(i, j) /= row_sum;
  }
  return TransitionModel(std::move(a),
                         std::vector<double>(states, 1.0 / double(states)));
}

namespace {

using Support = TransitionModel::Support;

/// Process-unique Power ids; 0 is never issued, so a fresh StepLayouts
/// (ids 0) matches no power.
std::atomic<std::uint64_t> g_next_power_id{1};

// The layouts below are written only over the row supports of `p`; the
// entries outside them keep the fill value, which is exactly what a full
// loop would write there (0, or safe_log(0) = -inf).

/// t(j, i) = p(i, j), padded with 0.
void transpose_into(const math::Matrix& p, std::span<const Support> rows,
                    math::Matrix& t) {
  const std::size_t k = p.rows();
  t.resize_padded(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = rows[i].lo; j < rows[i].hi; ++j) t(j, i) = p(i, j);
  }
}

/// log_p = safe_log(p) elementwise and log_t its transpose, padded with
/// -inf.
void log_into(const math::Matrix& p, std::span<const Support> rows,
              math::Matrix& log_p, math::Matrix& log_t) {
  const std::size_t k = p.rows();
  log_p.resize_padded(k, k, math::kNegInf);
  log_t.resize_padded(k, k, math::kNegInf);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = rows[i].lo; j < rows[i].hi; ++j) {
      const double v = math::safe_log(p(i, j));
      log_p(i, j) = v;
      log_t(j, i) = v;
    }
  }
}

/// Union of each run of kSupportBlock supports (empty when all are).
std::vector<Support> block_unions(const std::vector<Support>& supports) {
  using math::simd_kernels::kSupportBlock;
  static_assert(kSupportBlock == math::kRowPadDoubles);
  std::vector<Support> blocks(supports.size() / kSupportBlock);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::size_t i = b * kSupportBlock; i < (b + 1) * kSupportBlock;
         ++i) {
      const Support s = supports[i];
      if (s.lo >= s.hi) continue;
      Support& u = blocks[b];
      u = u.lo < u.hi ? Support{std::min(u.lo, s.lo), std::max(u.hi, s.hi)}
                      : s;
    }
  }
  return blocks;
}

}  // namespace

TransitionModel::Power TransitionModel::compute_power(
    std::size_t delta) const {
  const std::size_t k = states();
  // math::matrix_power's product, factor by factor: squares_[m] is its
  // `base` after m squarings, and the set bits multiply into the
  // identity in ascending order. The product buffers are reused across
  // calls, so no per-power temporaries fragment the heap the long-lived
  // tables live on.
  if (squares_.empty()) squares_.push_back(a_);
  math::Matrix& product = chain_product_;
  product.resize(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) product(i, i) = 1.0;
  for (std::size_t m = 0; (delta >> m) != 0; ++m) {
    if (m == squares_.size()) {
      math::Matrix next;
      squares_.back().multiply_into(squares_.back(), next);
      squares_.push_back(std::move(next));
    }
    if ((delta >> m) & 1U) {
      product.multiply_into(squares_[m], chain_scratch_);
      std::swap(product, chain_scratch_);
    }
  }

  Power power;
  power.p.resize_padded(k, k, 0.0);
  const std::size_t stride = power.p.col_stride();
  power.rows.assign(stride, Support{});
  power.cols.assign(stride, Support{});
  std::vector<std::uint32_t> col_lo(k, static_cast<std::uint32_t>(k));
  for (std::size_t i = 0; i < k; ++i) {
    const auto row = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < k; ++j) {
      const double v = product(i, j);
      power.p(i, j) = v;
      if (v == 0.0) continue;
      if (power.rows[i].hi == 0) {
        power.rows[i].lo = static_cast<std::uint32_t>(j);
      }
      power.rows[i].hi = static_cast<std::uint32_t>(j + 1);
      col_lo[j] = std::min(col_lo[j], row);
      power.cols[j].hi = row + 1;
    }
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (power.cols[j].hi != 0) power.cols[j].lo = col_lo[j];
  }
  power.row_blocks = block_unions(power.rows);
  power.col_blocks = block_unions(power.cols);
  power.id = g_next_power_id.fetch_add(1, std::memory_order_relaxed);
  return power;
}

void TransitionModel::precompute_powers(std::size_t max_delta) {
  if (dense_.size() > max_delta) return;
  dense_.reserve(max_delta + 1);
  for (std::size_t delta = dense_.size(); delta <= max_delta; ++delta) {
    DenseEntry entry;
    entry.power = compute_power(delta);
    transpose_into(entry.power.p, entry.power.rows, entry.t);
    log_into(entry.power.p, entry.power.rows, entry.log_p, entry.log_t);
    dense_.push_back(std::move(entry));
  }
}

const TransitionModel::Power& TransitionModel::overflow_power(
    std::size_t delta) const {
  // Read-mostly fast path: after a gap length is memoized once, every
  // later lookup shares the lock, so concurrent lanes replaying long-gap
  // sessions don't serialize. std::map node stability keeps the returned
  // reference valid across later insertions by other threads.
  {
    const std::shared_lock lock(overflow_mutex_);
    const auto it = overflow_.find(delta);
    if (it != overflow_.end()) return it->second;
  }
  const std::unique_lock lock(overflow_mutex_);
  // Re-check: another thread may have computed this delta between the
  // two locks; skipping the chain product is the point.
  const auto it = overflow_.find(delta);
  if (it != overflow_.end()) return it->second;
  const auto [inserted, ok] = overflow_.emplace(delta, compute_power(delta));
  VERITAS_ENSURES(ok);
  return inserted->second;
}

TransitionModel::PowerView TransitionModel::power_view(
    std::size_t delta) const {
  const Power& power =
      delta < dense_.size() ? dense_[delta].power : overflow_power(delta);
  return {power.p, power.rows, power.cols};
}

const math::Matrix& TransitionModel::power(std::size_t delta) const {
  return power_view(delta).p;
}

math::simd_kernels::DeltaTables TransitionModel::tables(
    std::size_t delta, Domain domain, StepLayouts& step) const {
  math::simd_kernels::DeltaTables tables;
  const Power* power = nullptr;
  if (delta < dense_.size()) {
    const DenseEntry& entry = dense_[delta];
    power = &entry.power;
    tables.p = (domain == Domain::kLog ? entry.log_p : power->p).row_data(0);
    tables.t = (domain == Domain::kLog ? entry.log_t : entry.t).row_data(0);
  } else {
    power = &overflow_power(delta);
    if (domain == Domain::kLog) {
      if (step.log_of_ != power->id) {
        log_into(power->p, power->rows, step.log_p_, step.log_t_);
        step.log_of_ = power->id;
      }
      tables.p = step.log_p_.row_data(0);
      tables.t = step.log_t_.row_data(0);
    } else {
      if (step.t_of_ != power->id) {
        transpose_into(power->p, power->rows, step.t_);
        step.t_of_ = power->id;
      }
      tables.p = power->p.row_data(0);
      tables.t = step.t_.row_data(0);
    }
  }
  tables.rows = power->rows.data();
  tables.cols = power->cols.data();
  tables.row_blocks = power->row_blocks.data();
  tables.col_blocks = power->col_blocks.data();
  tables.stride = power->p.col_stride();
  return tables;
}

}  // namespace veritas::core
