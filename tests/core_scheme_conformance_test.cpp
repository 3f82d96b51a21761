// The registry-wide scheme conformance suite: every contract a scheme
// must honor to plug into the engine and the simulator, auto-run for
// EVERY registered scheme by iterating `SchemeRegistry::instance()
// .names()` over the shared fixture (tests/scheme_test_fixture.hpp —
// also the backbone of core_collector_reset_test, which owns the deep
// reset-vs-fresh trajectory checks). Registering a new scheme enrolls
// it here with no test edits:
//
//   * placement invariants — full coverage, per-worker load bounds,
//     no within-worker duplicates, total replication budget;
//   * reset-vs-fresh equivalence (smoke level; the reset suite goes deep);
//   * the DESIGN.md §7 allocation budget — zero steady-state heap
//     allocations through a warm `IterationKernel` (this binary replaces
//     the global allocation functions with counting wrappers, same
//     mechanism as simulate_alloc_test);
//   * decode correctness against the unit-ordered serial gradient sum
//     over randomized arrival orders with duplicate re-deliveries —
//     bitwise for the slot-in-unit-order schemes, 5-ulp-scale tolerance
//     for the rest;
//   * gc_cyclic's headline guarantee, exhaustively: EVERY arrival set of
//     size >= n - s decodes bitwise-equal to the serial sum;
//   * sgc's approximate-recovery contract: the decode is an unbiased
//     estimator of the full gradient sum whose per-coordinate variance
//     matches theory.hpp's closed form, and the capability flag is
//     declared by exactly the schemes whose decode is stochastic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "core/theory.hpp"
#include "scheme_test_fixture.hpp"
#include "simulate/simulate.hpp"
#include "stats/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                // aligned_alloc requires size to be a multiple of align.
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace coupon::core {
namespace {

using test_fixture::SchemeFixture;
using test_fixture::build_fixture;
using test_fixture::expect_identical_trajectories;
using test_fixture::kDim;
using test_fixture::kLoad;
using test_fixture::kUnits;
using test_fixture::kWorkers;

/// Decode sums per-unit slots in unit order 0..m-1 (or worker order ==
/// unit order for uncoded at m == n), which reproduces the fixture's
/// serial reference bit-for-bit. The remaining exact schemes sum in a
/// different association (per-batch / per-block / prefix components) and
/// get a tolerance instead; "sgc" decodes a stochastic estimate and has
/// its own statistical tests below.
bool decode_is_bitwise_serial(const std::string& name) {
  return name == "uncoded" || name == "simple_random" || name == "gc_cyclic";
}

/// Drives `collector` with every worker's message (payloads on) in the
/// given order and returns the decoded sum.
std::vector<double> offer_all_and_decode(const SchemeFixture& fixture,
                                         Collector& collector,
                                         const std::vector<std::size_t>& order) {
  for (const std::size_t worker : order) {
    const auto& msg = fixture.messages[worker];
    collector.offer(worker, msg.meta, msg.payload);
  }
  EXPECT_TRUE(collector.ready());
  std::vector<double> decoded(kDim);
  collector.decode_sum(decoded);
  return decoded;
}

// --- placement invariants ---------------------------------------------------

TEST(SchemeConformance, PlacementCoversAllUnitsWithinTheLoadBudget) {
  for (const auto& name : SchemeRegistry::instance().names()) {
    SCOPED_TRACE(name);
    const SchemeFixture fixture = build_fixture(name);
    const data::Placement& placement = fixture.scheme->placement();

    EXPECT_TRUE(placement.covers_all_examples());
    // uncoded ignores the requested load (its realized load is m/n = 1
    // here); every redundant scheme realizes exactly r.
    const std::size_t expected_load =
        name == "uncoded" ? kUnits / kWorkers : kLoad;
    EXPECT_EQ(placement.computational_load(), expected_load);
    EXPECT_EQ(placement.total_assigned(), kWorkers * expected_load);

    for (std::size_t i = 0; i < kWorkers; ++i) {
      auto units = placement.worker(i);
      EXPECT_LE(units.size(), expected_load) << "worker " << i;
      std::sort(units.begin(), units.end());
      EXPECT_EQ(std::adjacent_find(units.begin(), units.end()), units.end())
          << "worker " << i << " holds a unit twice";
      for (const std::size_t u : units) {
        EXPECT_LT(u, kUnits);
      }
    }
  }
}

TEST(SchemeConformance, ReplicationBalancedSchemesReplicateEveryUnitExactly) {
  // The r-fold replication families place every unit on exactly r
  // workers — for sgc that balance is what makes its estimator unbiased
  // under exchangeable arrivals, so it is load-bearing, not cosmetic.
  for (const char* name : {"cr", "fr", "gc_cyclic", "gc_nested", "sgc"}) {
    SCOPED_TRACE(name);
    const SchemeFixture fixture = build_fixture(name);
    for (const std::size_t multiplicity :
         fixture.scheme->placement().example_multiplicities()) {
      EXPECT_EQ(multiplicity, kLoad);
    }
  }
}

// --- reset-vs-fresh (smoke; core_collector_reset_test goes deep) ------------

TEST(SchemeConformance, ResetCollectorMatchesFreshOneShuffledRound) {
  for (const auto& name : SchemeRegistry::instance().names()) {
    SCOPED_TRACE(name);
    const SchemeFixture fixture = build_fixture(name);
    std::vector<std::size_t> order(kWorkers);
    std::iota(order.begin(), order.end(), 0);
    stats::Rng rng(0xC04F + name.size());
    rng.shuffle(order);

    const auto reused = fixture.scheme->make_collector();
    expect_identical_trajectories(fixture, *fixture.scheme->make_collector(),
                                  *reused, order, /*with_payloads=*/true);
    reused->reset();
    expect_identical_trajectories(fixture, *fixture.scheme->make_collector(),
                                  *reused, order, /*with_payloads=*/true);
  }
}

// --- the allocation budget --------------------------------------------------

/// Steady-state allocation count of `iterations` kernel runs after
/// `warmup` warm-up runs (warm-up lets reusable buffers reach capacity).
std::size_t steady_state_allocations(const Scheme& scheme,
                                     const simulate::ClusterConfig& cluster,
                                     std::size_t warmup,
                                     std::size_t iterations) {
  const auto model = simulate::make_latency_model(cluster, scheme.num_workers());
  simulate::IterationKernel kernel(scheme, cluster);
  stats::Rng rng(0xA110C);
  double checksum = 0.0;
  for (std::size_t t = 0; t < warmup; ++t) {
    checksum += kernel.run(*model, t, rng).total_time;
  }
  const std::size_t before = g_allocations.load();
  for (std::size_t t = warmup; t < warmup + iterations; ++t) {
    checksum += kernel.run(*model, t, rng).total_time;
  }
  const std::size_t after = g_allocations.load();
  EXPECT_GE(checksum, 0.0);  // keep the loop observable
  return after - before;
}

TEST(SchemeConformance, EverySchemeIteratesAllocationFreeOnceWarm) {
  simulate::ClusterConfig cluster;
  cluster.compute_shift = 1e-3;
  cluster.compute_straggle = 100.0;
  cluster.unit_transfer_seconds = 2e-3;
  cluster.broadcast_seconds = 1e-4;

  SchemeConfig config;
  config.num_workers = kWorkers;
  config.num_units = kUnits;
  config.load = kLoad;
  for (const auto& name : SchemeRegistry::instance().names()) {
    SCOPED_TRACE(name);
    stats::Rng build_rng(7);
    const auto scheme =
        SchemeRegistry::instance().create(name, config, build_rng);
    EXPECT_EQ(steady_state_allocations(*scheme, cluster, /*warmup=*/3,
                                       /*iterations=*/150),
              0u);
  }
}

// --- decode correctness -----------------------------------------------------

TEST(SchemeConformance, ExactSchemesDecodeTheSerialGradientSum) {
  for (const auto& name : SchemeRegistry::instance().names()) {
    if (SchemeRegistry::instance().find(name)->caps.approximate_recovery) {
      continue;  // stochastic decodes are gated statistically below
    }
    SCOPED_TRACE(name);
    const SchemeFixture fixture = build_fixture(name);
    const bool bitwise = decode_is_bitwise_serial(name);

    stats::Rng rng(0xDEC0DE + name.size());
    const auto collector = fixture.scheme->make_collector();
    for (std::size_t trial = 0; trial < 8; ++trial) {
      std::vector<std::size_t> order(kWorkers);
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);
      const std::size_t duplicates = rng.uniform_int(4);
      for (std::size_t d = 0; d < duplicates; ++d) {
        order.push_back(rng.uniform_int(kWorkers));
      }

      collector->reset();
      const auto decoded = offer_all_and_decode(fixture, *collector, order);
      for (std::size_t c = 0; c < kDim; ++c) {
        if (bitwise) {
          EXPECT_EQ(decoded[c], fixture.serial_sum[c]) << "coordinate " << c;
        } else {
          EXPECT_NEAR(decoded[c], fixture.serial_sum[c], 1e-9)
              << "coordinate " << c;
        }
      }
    }
  }
}

TEST(SchemeConformance, DecodeIsBitwiseIndependentOfArrivalOrder) {
  // Every collector decodes from slots indexed by coupon or worker, never
  // by arrival position: the arrival set that made one collector ready,
  // offered in reverse to a fresh one, must decode to the same bits.
  for (const auto& name : SchemeRegistry::instance().names()) {
    SCOPED_TRACE(name);
    const SchemeFixture fixture = build_fixture(name);
    stats::Rng rng(0x0DE2 + name.size());
    for (std::size_t trial = 0; trial < 8; ++trial) {
      std::vector<std::size_t> order(kWorkers);
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);

      const auto forward = fixture.scheme->make_collector();
      std::vector<std::size_t> arrived;
      for (const std::size_t worker : order) {
        const auto& msg = fixture.messages[worker];
        forward->offer(worker, msg.meta, msg.payload);
        arrived.push_back(worker);
        if (forward->ready()) {
          break;
        }
      }
      ASSERT_TRUE(forward->ready()) << "trial " << trial;
      std::vector<double> decoded_forward(kDim);
      forward->decode_sum(decoded_forward);

      std::reverse(arrived.begin(), arrived.end());
      const auto reversed = fixture.scheme->make_collector();
      const auto decoded_reversed =
          offer_all_and_decode(fixture, *reversed, arrived);
      EXPECT_EQ(std::memcmp(decoded_forward.data(), decoded_reversed.data(),
                            kDim * sizeof(double)),
                0)
          << "trial " << trial;
    }
  }
}

TEST(SchemeConformance, GcCyclicDecodesBitwiseOnEveryQualifyingArrivalSet) {
  // The acceptance guarantee, checked exhaustively: for EVERY arrival set
  // of at least n - s distinct workers (s = r - 1 stragglers tolerated),
  // the decode equals the unit-ordered serial sum bit for bit. At
  // n = 12, s = 2 that is C(12,10) + C(12,11) + C(12,12) = 79 subsets.
  const SchemeFixture fixture = build_fixture("gc_cyclic");
  const std::size_t threshold = kWorkers - (kLoad - 1);
  const auto collector = fixture.scheme->make_collector();

  std::size_t subsets = 0;
  for (std::uint32_t mask = 0; mask < (1u << kWorkers); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) < threshold) {
      continue;
    }
    ++subsets;
    collector->reset();
    for (std::size_t worker = 0; worker < kWorkers; ++worker) {
      if ((mask >> worker) & 1u) {
        const auto& msg = fixture.messages[worker];
        collector->offer(worker, msg.meta, msg.payload);
      }
    }
    ASSERT_TRUE(collector->ready()) << "mask " << mask;
    std::vector<double> decoded(kDim);
    collector->decode_sum(decoded);
    EXPECT_EQ(decoded, fixture.serial_sum) << "mask " << mask;
  }
  EXPECT_EQ(subsets, 79u);
}

// --- sgc: the approximate-recovery contract ---------------------------------

TEST(SchemeConformance, ApproximateRecoveryIsDeclaredByExactlyTheStochastic) {
  for (const auto& name : SchemeRegistry::instance().names()) {
    const auto* entry = SchemeRegistry::instance().find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->caps.approximate_recovery, name == "sgc") << name;
  }
}

TEST(SchemeConformance, SgcDecodeIsUnbiasedWithTheTheoryVariance) {
  // The estimator: Y = (n / (r k)) * sum of the k = n - r + 1 arrived
  // per-worker sums. Over a uniform k-subset of workers (the arrival set
  // of an exchangeable-latency iteration), sampling-without-replacement
  // gives E[Y] = (1/r) * sum_i s_i (= the full gradient sum, since the
  // balanced placement replicates every unit exactly r times) and
  // Var[Y_c] = sgc_estimator_variance_factor(n, r, k) * pop-variance of
  // the per-worker sums' coordinate c. Both are checked against a
  // Monte-Carlo sweep of random arrival sets at 5 standard errors.
  const SchemeFixture fixture = build_fixture("sgc");
  const std::size_t quota = kWorkers - kLoad + 1;

  // Per-worker sums exactly as the collector consumes them: the encoded
  // payloads themselves.
  std::vector<std::vector<double>> worker_sums;
  for (const auto& msg : fixture.messages) {
    ASSERT_EQ(msg.payload.size(), kDim);
    worker_sums.emplace_back(msg.payload.begin(), msg.payload.end());
  }

  // E[Y] = (1/r) sum_i s_i, which must also be the true gradient sum up
  // to roundoff (each unit contributes to exactly r worker sums).
  std::vector<double> exact_mean(kDim, 0.0);
  for (const auto& s : worker_sums) {
    for (std::size_t c = 0; c < kDim; ++c) {
      exact_mean[c] += s[c];
    }
  }
  std::vector<double> pop_mean(kDim);
  for (std::size_t c = 0; c < kDim; ++c) {
    pop_mean[c] = exact_mean[c] / static_cast<double>(kWorkers);
    exact_mean[c] /= static_cast<double>(kLoad);
    EXPECT_NEAR(exact_mean[c], fixture.serial_sum[c], 1e-9)
        << "coordinate " << c;
  }
  std::vector<double> theory_var(kDim, 0.0);
  const double factor =
      theory::sgc_estimator_variance_factor(kWorkers, kLoad, quota);
  for (std::size_t c = 0; c < kDim; ++c) {
    double pop_var = 0.0;
    for (const auto& s : worker_sums) {
      pop_var += (s[c] - pop_mean[c]) * (s[c] - pop_mean[c]);
    }
    theory_var[c] = factor * pop_var / static_cast<double>(kWorkers);
  }

  // Monte Carlo over uniform arrival sets: shuffling all n workers and
  // offering in that order keeps exactly the first `quota` distinct
  // arrivals — a uniform quota-subset. One collector, reset per trial.
  constexpr std::size_t kMcTrials = 4000;
  stats::Rng rng(0x5AC);
  const auto collector = fixture.scheme->make_collector();
  std::vector<std::size_t> order(kWorkers);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> decoded(kDim);
  std::vector<double> mc_sum(kDim, 0.0), mc_sumsq(kDim, 0.0);
  for (std::size_t trial = 0; trial < kMcTrials; ++trial) {
    rng.shuffle(order);
    collector->reset();
    for (const std::size_t worker : order) {
      const auto& msg = fixture.messages[worker];
      collector->offer(worker, msg.meta, msg.payload);
    }
    ASSERT_TRUE(collector->ready());
    EXPECT_EQ(collector->workers_heard(), quota);
    collector->decode_sum(decoded);
    for (std::size_t c = 0; c < kDim; ++c) {
      mc_sum[c] += decoded[c];
      mc_sumsq[c] += decoded[c] * decoded[c];
    }
  }
  for (std::size_t c = 0; c < kDim; ++c) {
    const double mc_mean = mc_sum[c] / kMcTrials;
    const double mc_var =
        mc_sumsq[c] / kMcTrials - mc_mean * mc_mean;
    // Unbiasedness at 5 standard errors of the Monte-Carlo mean.
    EXPECT_NEAR(mc_mean, exact_mean[c],
                5.0 * std::sqrt(theory_var[c] / kMcTrials) + 1e-12)
        << "coordinate " << c;
    // The variance estimate concentrates ~ var * sqrt(2/T) (bounded
    // support); 30% is > 6 of those standard errors at T = 4000.
    EXPECT_NEAR(mc_var, theory_var[c], 0.3 * theory_var[c] + 1e-15)
        << "coordinate " << c;
  }
}

TEST(SchemeConformance, SgcPartialDecodeTargetsTheFullSum) {
  // decode_partial_sum reports all m units covered because the estimator
  // already targets the FULL gradient sum — the engine's covered/m
  // rescale must be the identity, never a double-scaling.
  const SchemeFixture fixture = build_fixture("sgc");
  const auto collector = fixture.scheme->make_collector();
  std::vector<double> partial(kDim);
  EXPECT_EQ(collector->decode_partial_sum(partial), 0u);
  EXPECT_EQ(partial, std::vector<double>(kDim, 0.0));

  for (std::size_t worker = 0; worker < 3; ++worker) {
    const auto& msg = fixture.messages[worker];
    collector->offer(worker, msg.meta, msg.payload);
  }
  ASSERT_FALSE(collector->ready());
  EXPECT_EQ(collector->decode_partial_sum(partial), kUnits);
  // Same estimator as decode_sum would produce at this arrival set:
  // scaled by n / (r * 3), already an unbiased full-sum estimate.
  for (std::size_t c = 0; c < kDim; ++c) {
    double s = 0.0;
    for (std::size_t worker = 0; worker < 3; ++worker) {
      s += fixture.messages[worker].payload[c];
    }
    EXPECT_DOUBLE_EQ(partial[c],
                     s * static_cast<double>(kWorkers) /
                         (static_cast<double>(kLoad) * 3.0));
  }
}

}  // namespace
}  // namespace coupon::core
