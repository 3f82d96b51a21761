// Deep tests for cyclic-repetition gradient coding: coding-matrix
// structure, universal decodability over straggler patterns (the
// worst-case guarantee of Tandon et al.), and exact gradient recovery.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/cyclic_repetition.hpp"
#include "data/synthetic.hpp"
#include "linalg/vector_ops.hpp"
#include "opt/logistic.hpp"
#include "stats/rng.hpp"

namespace coupon::core {
namespace {

// Builds an int64 meta vector inline (std::span cannot bind a brace list).
std::vector<std::int64_t> mv(std::initializer_list<std::int64_t> v) {
  return std::vector<std::int64_t>(v);
}

/// Checks that sum_w coeffs[w] * B_row(workers[w]) == all-ones.
void expect_combination_is_ones(const CyclicRepetitionScheme& scheme,
                                std::span<const std::size_t> workers,
                                std::span<const double> coeffs,
                                double tol = 1e-6) {
  const std::size_t n = scheme.num_workers();
  std::vector<double> combo(n, 0.0);
  for (std::size_t k = 0; k < workers.size(); ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      combo[j] += coeffs[k] * scheme.coding_matrix()(workers[k], j);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(combo[j], 1.0, tol) << "unit " << j;
  }
}

class CrConstructionTest : public ::testing::TestWithParam<
                               std::pair<std::size_t, std::size_t>> {};

TEST_P(CrConstructionTest, SupportIsCyclicWindow) {
  const auto [n, r] = GetParam();
  stats::Rng rng(7 * n + r);
  CyclicRepetitionScheme scheme(n, r, rng);
  const auto& b = scheme.coding_matrix();
  for (std::size_t i = 0; i < n; ++i) {
    // Leading coefficient is 1 by construction (or identity when r = 1).
    EXPECT_DOUBLE_EQ(b(i, i), 1.0);
    std::vector<bool> in_window(n, false);
    for (std::size_t t = 0; t < r; ++t) {
      in_window[(i + t) % n] = true;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_window[j]) {
        EXPECT_DOUBLE_EQ(b(i, j), 0.0)
            << "row " << i << " col " << j << " outside window";
      }
    }
  }
}

TEST_P(CrConstructionTest, PlacementMatchesSupport) {
  const auto [n, r] = GetParam();
  stats::Rng rng(11 * n + r);
  CyclicRepetitionScheme scheme(n, r, rng);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = scheme.placement().worker(i);
    ASSERT_EQ(g.size(), r);
    for (std::size_t t = 0; t < r; ++t) {
      EXPECT_EQ(g[t], (i + t) % n);
    }
  }
}

TEST_P(CrConstructionTest, DecodableFromAnyRandomSubset) {
  const auto [n, r] = GetParam();
  stats::Rng rng(13 * n + r);
  CyclicRepetitionScheme scheme(n, r, rng);
  const std::size_t s = scheme.stragglers_tolerated();
  for (int trial = 0; trial < 20; ++trial) {
    const auto workers = rng.sample_without_replacement(n, n - s);
    CrDecodeWorkspace ws;
    ASSERT_TRUE(scheme.decoding_coefficients_into(workers, ws))
        << "trial " << trial;
    expect_combination_is_ones(scheme, workers, ws.coeffs);
  }
}

TEST_P(CrConstructionTest, DecodableUnderAdversarialConsecutiveStragglers) {
  // Consecutive stragglers maximally overlap the cyclic windows — the
  // stress case for the construction.
  const auto [n, r] = GetParam();
  stats::Rng rng(17 * n + r);
  CyclicRepetitionScheme scheme(n, r, rng);
  const std::size_t s = scheme.stragglers_tolerated();
  for (std::size_t start = 0; start < n; ++start) {
    std::vector<std::size_t> workers;
    for (std::size_t i = 0; i < n; ++i) {
      // Straggle workers start, start+1, ..., start+s-1 (mod n).
      const std::size_t offset = (i + n - start) % n;
      if (offset >= s) {
        workers.push_back(i);
      }
    }
    ASSERT_EQ(workers.size(), n - s);
    CrDecodeWorkspace ws;
    ASSERT_TRUE(scheme.decoding_coefficients_into(workers, ws))
        << "straggler run at " << start;
    expect_combination_is_ones(scheme, workers, ws.coeffs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrConstructionTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{6, 3},
                      std::pair<std::size_t, std::size_t>{10, 4},
                      std::pair<std::size_t, std::size_t>{12, 1},
                      std::pair<std::size_t, std::size_t>{15, 5},
                      std::pair<std::size_t, std::size_t>{20, 10},
                      std::pair<std::size_t, std::size_t>{30, 7}));

TEST(Cr, LoadOneDegeneratesToIdentity) {
  stats::Rng rng(1);
  CyclicRepetitionScheme scheme(8, 1, rng);
  EXPECT_EQ(scheme.coding_matrix(), linalg::Matrix::identity(8));
  EXPECT_EQ(scheme.stragglers_tolerated(), 0u);
  EXPECT_DOUBLE_EQ(*scheme.expected_recovery_threshold(), 8.0);
}

TEST(Cr, RecoveryThresholdIsNMinusRPlusOne) {
  stats::Rng rng(2);
  CyclicRepetitionScheme scheme(50, 10, rng);
  EXPECT_DOUBLE_EQ(*scheme.expected_recovery_threshold(), 41.0);
}

TEST(Cr, TooFewWorkersCannotDecode) {
  stats::Rng rng(3);
  CyclicRepetitionScheme scheme(10, 4, rng);
  const auto workers = rng.sample_without_replacement(10, 6);  // < n - s = 7
  CrDecodeWorkspace ws;
  EXPECT_FALSE(scheme.decoding_coefficients_into(workers, ws));
}

TEST(Cr, CollectorReadyExactlyAtThreshold) {
  stats::Rng rng(4);
  CyclicRepetitionScheme scheme(10, 4, rng);  // needs 7
  auto collector = scheme.make_collector();
  for (std::size_t i = 0; i < 6; ++i) {
    collector->offer(i, scheme.message_meta(i), {});
    EXPECT_FALSE(collector->ready());
  }
  collector->offer(9, scheme.message_meta(9), {});
  EXPECT_TRUE(collector->ready());
  EXPECT_EQ(collector->workers_heard(), 7u);
}

TEST(Cr, DuplicateWorkerDoesNotAdvanceReadiness) {
  stats::Rng rng(5);
  CyclicRepetitionScheme scheme(6, 3, rng);  // needs 4
  auto collector = scheme.make_collector();
  EXPECT_TRUE(collector->offer(0, mv({0}), {}));
  EXPECT_FALSE(collector->offer(0, mv({0}), {}));  // duplicate delivery
  EXPECT_EQ(collector->workers_heard(), 2u);   // counted toward K
  collector->offer(1, mv({1}), {});
  collector->offer(2, mv({2}), {});
  EXPECT_FALSE(collector->ready());
  collector->offer(3, mv({3}), {});
  EXPECT_TRUE(collector->ready());
}

class CrDecodeGradientTest : public ::testing::TestWithParam<
                                 std::pair<std::size_t, std::size_t>> {};

TEST_P(CrDecodeGradientTest, DecodedGradientMatchesSerialForRandomStragglers) {
  const auto [n, r] = GetParam();
  stats::Rng rng(23 * n + r);
  data::SyntheticConfig dconf;
  dconf.num_features = 6;
  const auto prob = data::generate_logreg(n, dconf, rng);
  PerExampleSource source(prob.dataset);
  CyclicRepetitionScheme scheme(n, r, rng);

  std::vector<double> w(6);
  for (auto& v : w) {
    v = rng.normal();
  }
  std::vector<double> serial(6);
  opt::logistic_gradient(prob.dataset, w, serial);
  linalg::scal(static_cast<double>(n), serial);

  for (int trial = 0; trial < 5; ++trial) {
    auto survivors = rng.sample_without_replacement(
        n, n - scheme.stragglers_tolerated());
    auto collector = scheme.make_collector();
    for (std::size_t i : survivors) {
      const auto msg = scheme.encode(i, source, w);
      collector->offer(i, msg.meta, msg.payload);
    }
    ASSERT_TRUE(collector->ready());
    std::vector<double> decoded(6);
    collector->decode_sum(decoded);
    EXPECT_LT(linalg::max_abs_diff(decoded, serial),
              1e-6 * (1.0 + linalg::max_abs(serial)))
        << "n=" << n << " r=" << r << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrDecodeGradientTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{6, 2},
                      std::pair<std::size_t, std::size_t>{8, 3},
                      std::pair<std::size_t, std::size_t>{12, 4},
                      std::pair<std::size_t, std::size_t>{16, 8}));

TEST(Cr, EncodeAppliesCodingCoefficients) {
  stats::Rng rng(31);
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  const auto prob = data::generate_logreg(5, dconf, rng);
  PerExampleSource source(prob.dataset);
  CyclicRepetitionScheme scheme(5, 2, rng);
  const std::vector<double> w = {0.2, -0.1, 0.05};

  const auto msg = scheme.encode(1, source, w);  // units 1 and 2
  std::vector<double> g1(3), g2(3), expected(3, 0.0);
  opt::partial_gradient(prob.dataset, 1, w, g1);
  opt::partial_gradient(prob.dataset, 2, w, g2);
  linalg::axpy(scheme.coding_matrix()(1, 1), g1, expected);
  linalg::axpy(scheme.coding_matrix()(1, 2), g2, expected);
  EXPECT_LT(linalg::max_abs_diff(msg.payload, expected), 1e-12);
}


TEST(Cr, PartialDecodeIsUnsupported) {
  stats::Rng rng(6);
  CyclicRepetitionScheme scheme(6, 3, rng);
  auto collector = scheme.make_collector();
  EXPECT_FALSE(collector->supports_partial_decode());
  std::vector<double> out(4);
  EXPECT_THROW(collector->decode_partial_sum(out), AssertionError);
}

TEST(Cr, InvalidLoadAsserts) {
  stats::Rng rng(1);
  EXPECT_THROW(CyclicRepetitionScheme(5, 0, rng), AssertionError);
  EXPECT_THROW(CyclicRepetitionScheme(5, 6, rng), AssertionError);
}

}  // namespace
}  // namespace coupon::core
