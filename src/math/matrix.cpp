#include "math/matrix.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "util/expects.hpp"

namespace veritas::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), stride_(cols), data_(rows * cols, fill) {
  VERITAS_EXPECTS(rows > 0 && cols > 0);
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  VERITAS_EXPECTS(!rows.empty() && !rows.front().empty());
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    VERITAS_EXPECTS(rows[r].size() == m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::reshape(std::size_t rows, std::size_t cols, std::size_t stride,
                     double fill) {
  VERITAS_EXPECTS(rows > 0 && cols > 0);
  rows_ = rows;
  cols_ = cols;
  stride_ = stride;
  data_.assign(rows * stride, fill);
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
  reshape(rows, cols, cols, fill);
}

void Matrix::resize_padded(std::size_t rows, std::size_t cols, double fill) {
  reshape(rows, cols, padded_cols(cols), fill);
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  Matrix out;
  multiply_into(rhs, out);
  return out;
}

void Matrix::multiply_into(const Matrix& rhs, Matrix& out) const {
  VERITAS_EXPECTS(cols_ == rhs.rows_);
  VERITAS_EXPECTS(&out != this && &out != &rhs);
  out.resize(rows_, rhs.cols_, 0.0);
  // Non-zero column range [lo, hi) of each rhs row. Outside it a term is
  // a·0 = ±0, which leaves the accumulator unchanged, so skipping it —
  // like skipping a zero `a` — gives the dense loop's exact bits while
  // banded products (powers of a tridiagonal A) cost O(band) per row.
  std::vector<std::pair<std::size_t, std::size_t>> nonzero(rhs.rows_);
  for (std::size_t k = 0; k < rhs.rows_; ++k) {
    const double* rhs_row = rhs.row_data(k);
    std::size_t lo = 0;
    std::size_t hi = rhs.cols_;
    while (lo < hi && rhs_row[lo] == 0.0) ++lo;
    while (hi > lo && rhs_row[hi - 1] == 0.0) --hi;
    nonzero[k] = {lo, hi};
  }
  // ikj order: the inner loop walks both rhs and out contiguously.
  for (std::size_t r = 0; r < rows_; ++r) {
    double* out_row = out.row_data(r);
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      const double* rhs_row = rhs.row_data(k);
      for (std::size_t c = nonzero[k].first; c < nonzero[k].second; ++c) {
        out_row[c] += a * rhs_row[c];
      }
    }
  }
}

std::vector<double> Matrix::operator*(std::span<const double> v) const {
  VERITAS_EXPECTS(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::max_abs_diff(const Matrix& rhs) const {
  VERITAS_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  double worst = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      worst = std::max(worst, std::abs((*this)(r, c) - rhs(r, c)));
    }
  }
  return worst;
}

bool Matrix::is_row_stochastic(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      if ((*this)(r, c) < -tol) return false;
      sum += (*this)(r, c);
    }
    if (std::abs(sum - 1.0) > tol) return false;
  }
  return true;
}

Matrix matrix_power(const Matrix& a, std::size_t power) {
  VERITAS_EXPECTS(a.rows() == a.cols());
  Matrix result = Matrix::identity(a.rows());
  Matrix base = a;
  Matrix scratch;
  std::size_t p = power;
  while (p > 0) {
    if (p & 1U) {
      result.multiply_into(base, scratch);
      std::swap(result, scratch);
    }
    p >>= 1U;
    if (p > 0) {
      base.multiply_into(base, scratch);
      std::swap(base, scratch);
    }
  }
  return result;
}

}  // namespace veritas::math
