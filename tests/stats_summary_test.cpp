// Tests for streaming statistics and quantiles.

#include <gtest/gtest.h>

#include <cmath>

#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"

namespace coupon::stats {
namespace {

TEST(OnlineStats, EmptyAccumulator) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / 5.0;
  double ss = 0.0;
  for (double x : xs) {
    ss += (x - mean) * (x - mean);
  }
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), ss / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_NEAR(s.sem(), s.stddev() / std::sqrt(5.0), 1e-12);
}

TEST(OnlineStats, MergeEqualsSinglePass) {
  Rng rng(3);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  OnlineStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  EXPECT_EQ(b.count(), 2u);
}

TEST(OnlineStats, NumericallyStableForLargeOffsets) {
  OnlineStats s;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) {
    s.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
  }
  EXPECT_NEAR(s.mean(), offset, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0 + 1e-3, 2e-3);
}

TEST(Quantile, LinearInterpolation) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_NEAR(quantile(xs, 1.0 / 3.0), 20.0, 1e-12);
}

TEST(Quantile, UnsortedInputIsHandled) {
  std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.3), 7.0);
}

TEST(Quantile, RejectsEmptyAndBadQ) {
  EXPECT_THROW(quantile({}, 0.5), coupon::AssertionError);
  EXPECT_THROW(quantile({1.0}, -0.1), coupon::AssertionError);
  EXPECT_THROW(quantile({1.0}, 1.1), coupon::AssertionError);
}

}  // namespace
}  // namespace coupon::stats
