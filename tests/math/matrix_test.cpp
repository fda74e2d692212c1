#include "math/matrix.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "util/expects.hpp"

namespace veritas::math {
namespace {

TEST(Matrix, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FromRows) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), veritas::ContractViolation);
}

TEST(Matrix, IdentityProduct) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix i = Matrix::identity(2);
  EXPECT_DOUBLE_EQ((a * i).max_abs_diff(a), 0.0);
  EXPECT_DOUBLE_EQ((i * a).max_abs_diff(a), 0.0);
}

TEST(Matrix, ProductKnownValues) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, ProductShapeMismatchRejected) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, veritas::ContractViolation);
}

TEST(Matrix, NonSquareProduct) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}});       // 1x3
  const Matrix b = Matrix::from_rows({{1}, {2}, {3}});   // 3x1
  const Matrix c = a * b;
  EXPECT_EQ(c.rows(), 1u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(0, 0), 14);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const std::vector<double> v{1.0, 1.0};
  const auto out = a * std::span<const double>(v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(Matrix, Transpose) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
}

TEST(Matrix, RowView) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const auto row = a.row(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 3);
}

TEST(Matrix, IsRowStochastic) {
  EXPECT_TRUE(Matrix::from_rows({{0.5, 0.5}, {0.1, 0.9}}).is_row_stochastic());
  EXPECT_FALSE(Matrix::from_rows({{0.5, 0.6}, {0.1, 0.9}}).is_row_stochastic());
  EXPECT_FALSE(Matrix::from_rows({{1.5, -0.5}, {0.1, 0.9}}).is_row_stochastic());
  EXPECT_FALSE(Matrix(2, 3, 0.5).is_row_stochastic());  // non-square
}

TEST(MatrixPower, ZeroGivesIdentity) {
  const Matrix a = Matrix::from_rows({{0.5, 0.5}, {0.2, 0.8}});
  EXPECT_DOUBLE_EQ(matrix_power(a, 0).max_abs_diff(Matrix::identity(2)), 0.0);
}

TEST(MatrixPower, OneGivesSame) {
  const Matrix a = Matrix::from_rows({{0.5, 0.5}, {0.2, 0.8}});
  EXPECT_DOUBLE_EQ(matrix_power(a, 1).max_abs_diff(a), 0.0);
}

TEST(MatrixPower, MatchesNaiveForSmallPowers) {
  const Matrix a = Matrix::from_rows({{0.9, 0.1, 0.0},
                                      {0.05, 0.9, 0.05},
                                      {0.0, 0.1, 0.9}});
  Matrix naive = Matrix::identity(3);
  for (std::size_t p = 0; p <= 13; ++p) {
    EXPECT_LT(matrix_power(a, p).max_abs_diff(naive), 1e-12) << "power " << p;
    naive = naive * a;
  }
}

TEST(MatrixPower, StochasticStaysStochastic) {
  const Matrix a = Matrix::from_rows({{0.8, 0.2, 0.0},
                                      {0.1, 0.8, 0.1},
                                      {0.0, 0.2, 0.8}});
  for (std::size_t p : {2u, 7u, 32u, 101u}) {
    EXPECT_TRUE(matrix_power(a, p).is_row_stochastic(1e-9)) << "power " << p;
  }
}

TEST(MatrixPower, ConvergesToStationary) {
  // Symmetric chain converges to the uniform distribution.
  const Matrix a = Matrix::from_rows({{0.5, 0.5}, {0.5, 0.5}});
  const Matrix p = matrix_power(a, 50);
  EXPECT_NEAR(p(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(p(1, 0), 0.5, 1e-12);
}

TEST(Matrix, ResizeReshapesAndRefills) {
  Matrix m(2, 3, 1.0);
  m(1, 2) = 9.0;
  m.resize(3, 2, 0.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) EXPECT_EQ(m(r, c), 0.5);
  }
  EXPECT_THROW(m.resize(0, 2), veritas::ContractViolation);
}

TEST(Matrix, MultiplyIntoMatchesOperator) {
  const Matrix a = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {0.0, -1.0}});
  const Matrix b = Matrix::from_rows({{2.0, 0.5, 1.0}, {-1.0, 3.0, 0.0}});
  Matrix out(1, 1, 7.0);  // wrong shape and stale data: must be reset
  a.multiply_into(b, out);
  EXPECT_EQ(out.max_abs_diff(a * b), 0.0);
  Matrix aliased = a;
  EXPECT_THROW(aliased.multiply_into(b, aliased), veritas::ContractViolation);
}

TEST(Matrix, MultiplySkipsZerosBitExactly) {
  // Banded operands with ragged zero runs, negative entries and -0.0:
  // skipping zero entries and zero row ends must reproduce the plain
  // dense ikj loop's bits exactly.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t n : {1, 2, 5, 13, 40}) {
    Matrix a(n, n, 0.0);
    Matrix b(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const std::size_t d = r > c ? r - c : c - r;
        if (d <= 1 + r % 3) a(r, c) = dist(rng);
        if (d <= 2 + c % 4) b(r, c) = dist(rng);
        if ((r + c) % 7 == 0) b(r, c) = -0.0;
      }
    }
    Matrix dense(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t c = 0; c < n; ++c) dense(r, c) += a(r, k) * b(k, c);
      }
    }
    Matrix out;
    a.multiply_into(b, out);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(std::memcmp(out.row_data(r), dense.row_data(r),
                            n * sizeof(double)),
                0)
          << "n=" << n << " row " << r;
    }
  }
}

}  // namespace
}  // namespace veritas::math
