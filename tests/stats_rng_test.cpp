// Tests for the deterministic PRNG and its samplers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "stats/rng.hpp"
#include "util/assert.hpp"

namespace coupon::stats {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(19);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_int(8)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, 400);  // ~4 sigma
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(std::int64_t{-5}, std::int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(std::uint64_t{0}), coupon::AssertionError);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(29);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalScaling) {
  Rng rng(31);
  double sum = 0.0, sumsq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(37);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), coupon::AssertionError);
  EXPECT_THROW(rng.exponential(-1.0), coupon::AssertionError);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(47);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) {
    v[i] = i;
  }
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(53);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) {
    v[i] = i;
  }
  rng.shuffle(v);
  int fixed = 0;
  for (int i = 0; i < 100; ++i) {
    fixed += v[i] == i ? 1 : 0;
  }
  EXPECT_LT(fixed, 15);  // E[fixed points] = 1
}

// Property sweep for sample_without_replacement over both code paths
// (dense k ~ n and sparse k << n).
class SampleWithoutReplacementTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SampleWithoutReplacementTest, DistinctInRangeAndRightCount) {
  const auto [n, k] = GetParam();
  Rng rng(59);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_without_replacement(n, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), k);
    for (std::size_t idx : sample) {
      EXPECT_LT(idx, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SampleWithoutReplacementTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{10, 0},
                      std::pair<std::size_t, std::size_t>{10, 10},
                      std::pair<std::size_t, std::size_t>{10, 3},
                      std::pair<std::size_t, std::size_t>{1000, 5},
                      std::pair<std::size_t, std::size_t>{1000, 999},
                      std::pair<std::size_t, std::size_t>{5000, 50}));

TEST(SampleWithoutReplacement, KGreaterThanNAsserts) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), coupon::AssertionError);
}

TEST(SampleWithoutReplacement, MarginalsAreUniform) {
  // Each index should appear with probability k/n.
  Rng rng(61);
  const std::size_t n = 20, k = 5;
  std::vector<int> counts(n, 0);
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t idx : rng.sample_without_replacement(n, k)) {
      ++counts[idx];
    }
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected));
  }
}

}  // namespace
}  // namespace coupon::stats
