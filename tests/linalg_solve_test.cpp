// Tests for the two dense solves of the cyclic-repetition baseline:
// partial-pivot LU (`solve`) and Householder QR least squares
// (`lstsq_into`).

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "linalg/solve.hpp"
#include "linalg/vector_ops.hpp"
#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, stats::Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) {
    v = rng.normal();
  }
  return m;
}

std::vector<double> random_vector(std::size_t n, stats::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

/// A x.
std::vector<double> times(const Matrix& a, std::span<const double> x) {
  std::vector<double> out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    out[i] = dot(a.row(i), x);
  }
  return out;
}

/// ||A x - b||_2.
double residual(const Matrix& a, std::span<const double> x,
                std::span<const double> b) {
  const std::vector<double> ax = times(a, x);
  double ss = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    ss += (ax[i] - b[i]) * (ax[i] - b[i]);
  }
  return std::sqrt(ss);
}

/// `lstsq_into` through a fresh workspace; nullopt when rank deficient.
std::optional<std::vector<double>> least_squares(const Matrix& a,
                                                 std::span<const double> b) {
  LstsqWorkspace ws;
  std::vector<double> x(a.cols());
  if (!lstsq_into(a, b, x, ws)) {
    return std::nullopt;
  }
  return x;
}

// --- LU ----------------------------------------------------------------------

class LuSolveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSolveTest, RandomSystemResidualIsTiny) {
  const std::size_t n = GetParam();
  stats::Rng rng(100 + n);
  for (int trial = 0; trial < 5; ++trial) {
    const Matrix a = random_matrix(n, n, rng);
    const auto b = random_vector(n, rng);
    const auto x = solve(a, b);
    ASSERT_TRUE(x.has_value());
    EXPECT_LT(residual(a, *x, b),
              1e-9 * (1.0 + std::sqrt(dot(b, b))));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSolveTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 50, 100));

TEST(LuSolve, KnownSystem) {
  const Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b = {5.0, 10.0};
  const auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(LuSolve, SingularMatrixReturnsNullopt) {
  const Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_FALSE(solve(a, b).has_value());
}

TEST(LuSolve, PivotingHandlesZeroLeadingEntry) {
  const Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  const std::vector<double> b = {3.0, 7.0};
  const auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 7.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

// --- QR / least squares --------------------------------------------------------

class QrSquareTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QrSquareTest, SquareSystemSolvedExactly) {
  const std::size_t n = GetParam();
  stats::Rng rng(200 + n);
  const Matrix a = random_matrix(n, n, rng);
  const auto x_true = random_vector(n, rng);
  const auto x = least_squares(a, times(a, x_true));
  ASSERT_TRUE(x.has_value());
  EXPECT_LT(max_abs_diff(*x, x_true), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QrSquareTest,
                         ::testing::Values(1, 2, 4, 8, 20, 50));

TEST(Lstsq, ConsistentOverdeterminedIsExact) {
  stats::Rng rng(11);
  const Matrix a = random_matrix(30, 8, rng);
  const auto x_true = random_vector(8, rng);
  const std::vector<double> b = times(a, x_true);
  const auto x = least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_LT(max_abs_diff(*x, x_true), 1e-9);
  EXPECT_LT(residual(a, *x, b), 1e-9);
}

TEST(Lstsq, InconsistentMatchesNormalEquations) {
  stats::Rng rng(13);
  const Matrix a = random_matrix(20, 5, rng);
  const auto b = random_vector(20, rng);
  const auto x = least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  // Normal equations: (A^T A) x = A^T b, solved by LU.
  Matrix ata(5, 5);
  std::vector<double> atb(5, 0.0);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      atb[j] += a(i, j) * b[i];
      for (std::size_t k = 0; k < 5; ++k) {
        ata(j, k) += a(i, j) * a(i, k);
      }
    }
  }
  const auto x_ne = solve(ata, atb);
  ASSERT_TRUE(x_ne.has_value());
  EXPECT_LT(max_abs_diff(*x, *x_ne), 1e-8);
}

TEST(Lstsq, ResidualIsOrthogonalToColumnSpace) {
  stats::Rng rng(17);
  const Matrix a = random_matrix(25, 6, rng);
  const auto b = random_vector(25, rng);
  const auto x = least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  // r = A x - b must satisfy A^T r = 0.
  std::vector<double> r = times(a, *x);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] -= b[i];
  }
  std::vector<double> atr(6, 0.0);
  for (std::size_t i = 0; i < 25; ++i) {
    axpy(r[i], a.row(i), atr);
  }
  EXPECT_LT(max_abs(atr), 1e-9);
}

TEST(Lstsq, RankDeficientReturnsNullopt) {
  // Two identical columns.
  Matrix a(6, 2);
  stats::Rng rng(19);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = a(i, 0);
  }
  const auto b = random_vector(6, rng);
  EXPECT_FALSE(least_squares(a, b).has_value());
}

TEST(Lstsq, RequiresRowsGeqCols) {
  LstsqWorkspace ws;
  const std::vector<double> b(3, 1.0);
  std::vector<double> x(5);
  EXPECT_THROW(lstsq_into(Matrix(3, 5), b, x, ws), coupon::AssertionError);
}

TEST(Lstsq, WarmWorkspaceMatchesFreshAcrossShapes) {
  // The CR decoder reuses one workspace across iterations whose survivor
  // sets differ in size: a warm solve must be bitwise a fresh one.
  stats::Rng rng(37);
  const Matrix wide = random_matrix(8, 5, rng);
  const Matrix narrow = random_matrix(8, 3, rng);
  Matrix deficient(8, 3);
  for (std::size_t i = 0; i < 8; ++i) {
    deficient(i, 0) = rng.normal();
    deficient(i, 1) = rng.normal();
    deficient(i, 2) = deficient(i, 0);
  }
  const auto b = random_vector(8, rng);
  LstsqWorkspace warm;
  const auto warm_solve = [&](const Matrix& a) {
    std::vector<double> x(a.cols());
    EXPECT_TRUE(lstsq_into(a, b, x, warm));
    return x;
  };
  EXPECT_EQ(warm_solve(wide), *least_squares(wide, b));
  EXPECT_EQ(warm_solve(narrow), *least_squares(narrow, b));
  EXPECT_EQ(warm_solve(wide), *least_squares(wide, b));
  std::vector<double> x(3);
  EXPECT_FALSE(lstsq_into(deficient, b, x, warm));
  EXPECT_EQ(warm_solve(narrow), *least_squares(narrow, b));
  EXPECT_EQ(warm_solve(wide), *least_squares(wide, b));
}

}  // namespace
}  // namespace coupon::linalg
