// Deep tests for the simple randomized baseline: per-example placement,
// per-unit deduplication at the master, and the communication-load
// blow-up (Eq. 6) that motivates BCC. Also the per-worker-load
// constructors of simple_random and uncoded, which place Section IV's
// generalized BCC and its load-balancing baseline.

#include <gtest/gtest.h>

#include <set>

#include "core/simple_random.hpp"
#include "core/uncoded.hpp"
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

TEST(SimpleRandom, EachWorkerHoldsRDistinctUnits) {
  stats::Rng rng(1);
  SimpleRandomScheme scheme(30, 20, 6, rng);
  for (std::size_t i = 0; i < 30; ++i) {
    const auto& g = scheme.placement().worker(i);
    EXPECT_EQ(g.size(), 6u);
    std::set<std::size_t> distinct(g.begin(), g.end());
    EXPECT_EQ(distinct.size(), 6u);
    for (std::size_t u : g) {
      EXPECT_LT(u, 20u);
    }
  }
  EXPECT_EQ(scheme.computational_load(), 6u);
}

TEST(SimpleRandom, MessageUnitsEqualLoad) {
  stats::Rng rng(2);
  SimpleRandomScheme scheme(10, 15, 4, rng);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(scheme.message_units(i), 4.0);
    EXPECT_EQ(scheme.message_meta(i).size(), 4u);
  }
}

TEST(SimpleRandom, CommunicationLoadIsLoadTimesWorkersHeard) {
  // Each heard worker contributes r gradient units to L whether or not
  // its units were fresh — the Eq. 6 blow-up.
  stats::Rng rng(3);
  SimpleRandomScheme scheme(200, 12, 3, rng);
  auto collector = scheme.make_collector();
  for (std::size_t i = 0; i < 200 && !collector->ready(); ++i) {
    collector->offer(i, scheme.message_meta(i), {});
  }
  ASSERT_TRUE(collector->ready());
  EXPECT_DOUBLE_EQ(collector->units_received(),
                   3.0 * static_cast<double>(collector->workers_heard()));
}

TEST(SimpleRandom, OfferWithAllUnitsAlreadyCoveredIsNotKept) {
  stats::Rng rng(4);
  SimpleRandomScheme scheme(5, 4, 2, rng);
  auto collector = scheme.make_collector();
  EXPECT_TRUE(collector->offer(0, mv({0, 1}), {}));
  EXPECT_TRUE(collector->offer(1, mv({2, 1}), {}));   // unit 2 fresh
  EXPECT_FALSE(collector->offer(2, mv({0, 2}), {}));  // nothing fresh
  EXPECT_FALSE(collector->ready());               // unit 3 missing
  EXPECT_TRUE(collector->offer(3, mv({3, 0}), {}));
  EXPECT_TRUE(collector->ready());
  EXPECT_EQ(collector->workers_heard(), 4u);
  EXPECT_DOUBLE_EQ(collector->units_received(), 8.0);
}

TEST(SimpleRandom, DecodeKeepsFirstGradientPerUnit) {
  stats::Rng rng(5);
  data::SyntheticConfig dconf;
  dconf.num_features = 4;
  const auto prob = data::generate_logreg(6, dconf, rng);
  PerExampleSource source(prob.dataset);
  // Large n so the fixed seed covers all units with near certainty.
  SimpleRandomScheme scheme(60, 6, 2, rng);

  std::vector<double> w(4);
  for (auto& v : w) {
    v = rng.normal();
  }
  std::vector<double> serial(4);
  opt::logistic_gradient(prob.dataset, w, serial);
  linalg::scal(6.0, serial);

  auto collector = scheme.make_collector();
  for (std::size_t i = 0; i < 60 && !collector->ready(); ++i) {
    const auto msg = scheme.encode(i, source, w);
    collector->offer(i, msg.meta, msg.payload);
  }
  ASSERT_TRUE(collector->ready());
  std::vector<double> decoded(4);
  collector->decode_sum(decoded);
  EXPECT_LT(linalg::max_abs_diff(decoded, serial), 1e-10);
}

TEST(SimpleRandom, PayloadConcatenatesPerUnitGradients) {
  stats::Rng rng(6);
  data::SyntheticConfig dconf;
  dconf.num_features = 3;
  const auto prob = data::generate_logreg(5, dconf, rng);
  PerExampleSource source(prob.dataset);
  SimpleRandomScheme scheme(4, 5, 2, rng);
  const std::vector<double> w = {0.5, -0.5, 0.25};

  const auto msg = scheme.encode(0, source, w);
  ASSERT_EQ(msg.payload.size(), 6u);
  ASSERT_EQ(msg.meta.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    std::vector<double> expected(3);
    opt::partial_gradient(prob.dataset,
                          static_cast<std::size_t>(msg.meta[k]), w, expected);
    const std::span<const double> slice(msg.payload.data() + k * 3, 3);
    EXPECT_LT(linalg::max_abs_diff(slice, expected), 1e-13);
  }
}

TEST(SimpleRandom, InvalidLoadAsserts) {
  stats::Rng rng(7);
  EXPECT_THROW(SimpleRandomScheme(5, 4, 0, rng), AssertionError);
  EXPECT_THROW(SimpleRandomScheme(5, 4, 5, rng), AssertionError);
}

TEST(SimpleRandom, FullLoadMakesEveryWorkerSufficient) {
  stats::Rng rng(8);
  SimpleRandomScheme scheme(5, 4, 4, rng);  // r = m: one worker covers all
  auto collector = scheme.make_collector();
  collector->offer(0, scheme.message_meta(0), {});
  EXPECT_TRUE(collector->ready());
  EXPECT_EQ(collector->workers_heard(), 1u);
}

TEST(SimpleRandom, PerWorkerLoadsSetPlacementSizes) {
  stats::Rng rng(9);
  const std::vector<std::size_t> loads = {3, 0, 7, 1};
  const SimpleRandomScheme scheme(10, loads, rng);
  ASSERT_EQ(scheme.num_workers(), 4u);
  EXPECT_EQ(scheme.num_units(), 10u);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const auto& g = scheme.placement().worker(i);
    EXPECT_EQ(g.size(), loads[i]);
    EXPECT_EQ(std::set<std::size_t>(g.begin(), g.end()).size(), loads[i]);
    EXPECT_EQ(scheme.message_units(i), static_cast<double>(loads[i]));
  }
  // Covering 10 units with at most 7 per message takes >= 2 arrivals.
  EXPECT_EQ(scheme.min_arrivals_hint(), 2u);
  EXPECT_THROW(SimpleRandomScheme(10, std::vector<std::size_t>{0, 0}, rng),
               AssertionError);
  EXPECT_THROW(SimpleRandomScheme(10, std::vector<std::size_t>{2, 11}, rng),
               AssertionError);
}

TEST(SimpleRandom, UniformLoadsDrawOneSampleWithoutReplacementPerWorker) {
  // The (n, m, r) constructor delegates to the per-worker one and draws
  // exactly as before: one sample_without_replacement(m, r) per worker,
  // in worker order — the RNG stream behind every golden and bench.
  stats::Rng uniform_rng(10);
  const SimpleRandomScheme uniform(6, 9, 4, uniform_rng);
  stats::Rng per_worker_rng(10);
  const SimpleRandomScheme per_worker(
      9, std::vector<std::size_t>(6, 4), per_worker_rng);
  stats::Rng reference_rng(10);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto expected = reference_rng.sample_without_replacement(9, 4);
    EXPECT_EQ(uniform.placement().worker(i), expected) << i;
    EXPECT_EQ(per_worker.placement().worker(i), expected) << i;
  }
  EXPECT_EQ(uniform_rng.next_u64(), reference_rng.next_u64());
}

TEST(Uncoded, PerWorkerLoadsGetContiguousBlocks) {
  const std::vector<std::size_t> loads = {2, 0, 3, 1};
  const UncodedScheme scheme(loads);
  EXPECT_EQ(scheme.num_units(), 6u);  // m = sum of the loads
  EXPECT_EQ(scheme.placement().worker(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(scheme.placement().worker(1).empty());
  EXPECT_EQ(scheme.placement().worker(2),
            (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(scheme.placement().worker(3), (std::vector<std::size_t>{5}));
  // Wait-for-all still means every worker, the idle one included.
  auto collector = scheme.make_collector();
  for (std::size_t i = 0; i < 3; ++i) {
    collector->offer(i, scheme.message_meta(i), {});
    EXPECT_FALSE(collector->ready());
  }
  collector->offer(3, scheme.message_meta(3), {});
  EXPECT_TRUE(collector->ready());
  EXPECT_THROW(UncodedScheme(std::vector<std::size_t>{0, 0}), AssertionError);
}

TEST(Uncoded, EvenSplitDelegatesToContiguousBlocks) {
  // m = 7 over n = 3: the larger blocks first, as before.
  const UncodedScheme even(3, 7);
  const UncodedScheme blocks(std::vector<std::size_t>{3, 2, 2});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(even.placement().worker(i), blocks.placement().worker(i));
  }
  EXPECT_THROW(UncodedScheme(4, 3), AssertionError);  // m < n
}

}  // namespace
}  // namespace coupon::core
