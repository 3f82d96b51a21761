// Tests for the BLAS-1 kernels.

#include <gtest/gtest.h>

#include <vector>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::linalg {
namespace {

TEST(Dot, BasicAndEmpty) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(dot(std::span<const double>{}, std::span<const double>{}),
                   0.0);
}

TEST(Dot, UnrolledPathMatchesNaive) {
  // Length 11 exercises both the unrolled-by-4 loop and the remainder.
  std::vector<double> x(11), y(11);
  double expected = 0.0;
  for (int i = 0; i < 11; ++i) {
    x[i] = 0.5 * i - 2.0;
    y[i] = 1.0 / (i + 1.0);
    expected += x[i] * y[i];
  }
  EXPECT_NEAR(dot(x, y), expected, 1e-14);
}

TEST(Dot, SizeMismatchIsDebugCheckedOnly) {
  // dot/axpy size checks are COUPON_DCHECK (the hot-inner-loop
  // idiom): they fire only in COUPON_ENABLE_DCHECK builds.
#ifdef COUPON_ENABLE_DCHECK
  const std::vector<double> x = {1.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(dot(x, y), coupon::AssertionError);
#else
  GTEST_SKIP() << "size checks compile out without COUPON_ENABLE_DCHECK";
#endif
}

TEST(Axpy, AccumulatesScaled) {
  const std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {10.0, 20.0};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(Axpy, ZeroAlphaLeavesUntouched) {
  const std::vector<double> x = {5.0};
  std::vector<double> y = {2.0};
  axpy(0.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
}

TEST(Scal, ScalesInPlace) {
  std::vector<double> x = {1.0, -2.0, 3.0};
  scal(-2.0, x);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
  EXPECT_DOUBLE_EQ(x[2], -6.0);
}

TEST(Fill, SetsEveryElement) {
  std::vector<double> y = {1.0, 2.0};
  fill(y, 7.0);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MaxAbsDiff, FindsWorstDeviation) {
  const std::vector<double> a = {1.0, 5.0, -3.0};
  const std::vector<double> b = {1.1, 5.0, -3.5};
  EXPECT_NEAR(max_abs_diff(a, b), 0.5, 1e-15);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(std::span<const double>{}, std::span<const double>{}), 0.0);
}

TEST(MaxAbs, FindsLargestMagnitude) {
  const std::vector<double> a = {1.0, -5.0, 3.0};
  EXPECT_DOUBLE_EQ(max_abs(a), 5.0);
}

}  // namespace
}  // namespace coupon::linalg
