// Tests for the heterogeneous extension (Section IV): T-hat and its
// Lemma 1 monotonicity, the P2 load allocator, the LB baseline, and the
// Theorem 2 sandwich on the Fig. 5 configuration. Coverage and LB times
// come from the common timing kernel: generalized BCC is
// SimpleRandomScheme over per-worker loads, LB is UncodedScheme over
// mu-proportional loads, and the Eq. 15 profiles are per-worker latency
// overrides with no ingress or broadcast cost.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <optional>

#include "core/hetero.hpp"
#include "core/simple_random.hpp"
#include "core/theory.hpp"
#include "core/uncoded.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "util/assert.hpp"

namespace coupon::core::hetero {
namespace {

std::vector<WorkerProfile> fig5_cluster() {
  // 95 slow workers (mu = 1) + 5 fast workers (mu = 20), a_i = 20.
  std::vector<WorkerProfile> workers(100);
  for (std::size_t i = 0; i < 100; ++i) {
    workers[i] = {20.0, i < 95 ? 1.0 : 20.0};
  }
  return workers;
}

/// The kernel cluster for `workers`: Eq. 15 per-worker overrides, no
/// ingress or broadcast cost.
simulate::ClusterConfig cluster_of(const std::vector<WorkerProfile>& workers) {
  simulate::ClusterConfig cluster;
  cluster.unit_transfer_seconds = 0.0;
  for (const auto& w : workers) {
    cluster.worker_overrides.push_back({w.shift, w.straggle});
  }
  return cluster;
}

/// One generalized-BCC placement over `loads`, run for one iteration.
simulate::IterationReport run_once(const simulate::ClusterConfig& cluster,
                                   std::size_t m,
                                   std::span<const std::size_t> loads,
                                   stats::Rng& rng) {
  const SimpleRandomScheme scheme(m, loads, rng);
  auto run = simulate::simulate_run(
      scheme, cluster, {.iterations = 1, .record_trace = true}, rng);
  return run.iterations.front();
}

/// Its coverage time, or nothing when the placement cannot cover.
std::optional<double> coverage_time(const simulate::ClusterConfig& cluster,
                                    std::size_t m,
                                    std::span<const std::size_t> loads,
                                    stats::Rng& rng) {
  const auto report = run_once(cluster, m, loads, rng);
  if (!report.recovered) {
    return std::nullopt;
  }
  return report.total_time;
}

TEST(THat, HandComputedCases) {
  const std::vector<std::size_t> loads = {2, 3};
  const std::vector<double> times = {5.0, 3.0};
  EXPECT_DOUBLE_EQ(t_hat(times, loads, 1), 3.0);
  EXPECT_DOUBLE_EQ(t_hat(times, loads, 3), 3.0);
  EXPECT_DOUBLE_EQ(t_hat(times, loads, 4), 5.0);
  EXPECT_DOUBLE_EQ(t_hat(times, loads, 5), 5.0);
  EXPECT_EQ(t_hat(times, loads, 6), kInf);
}

TEST(THat, InfiniteTimesAreNeverCounted) {
  const std::vector<std::size_t> loads = {5, 5};
  const std::vector<double> times = {kInf, 2.0};
  EXPECT_DOUBLE_EQ(t_hat(times, loads, 5), 2.0);
  EXPECT_EQ(t_hat(times, loads, 6), kInf);
}

TEST(THat, Lemma1MonotonicityProperty) {
  // For any placement and any latency realization, s1 <= s2 implies
  // T-hat(s1) <= T-hat(s2) — Lemma 1 of the paper.
  stats::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(10);
    std::vector<WorkerProfile> workers(n);
    std::vector<std::size_t> loads(n);
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      workers[i] = {rng.uniform(0.0, 5.0), rng.uniform(0.1, 10.0)};
      loads[i] = rng.uniform_int(1, 8);
      total += loads[i];
    }
    std::vector<double> times(n);
    for (std::size_t i = 0; i < n; ++i) {
      times[i] = stats::ShiftedExponential::for_load(
                     workers[i].shift, workers[i].straggle,
                     static_cast<double>(loads[i]))
                     .sample(rng);
    }
    double prev = 0.0;
    for (std::size_t s = 1; s <= total; ++s) {
      const double cur = t_hat(times, loads, s);
      EXPECT_GE(cur, prev);
      prev = cur;
    }
  }
}

TEST(McExpectedTHat, ApproachesAnalyticSingleWorkerMean) {
  // One worker with load r: T-hat(r) == its completion time, whose mean
  // is a*r + r/mu.
  stats::Rng rng(3);
  const std::vector<WorkerProfile> workers = {{2.0, 4.0}};
  const std::vector<std::size_t> loads = {6};
  const double mc = mc_expected_t_hat(workers, loads, 6, 40000, rng);
  EXPECT_NEAR(mc, 2.0 * 6.0 + 6.0 / 4.0, 0.05);
}

TEST(OptimalNormalizedDeadline, SatisfiesTheRootEquation) {
  for (const WorkerProfile& w :
       {WorkerProfile{20.0, 1.0}, WorkerProfile{20.0, 20.0},
        WorkerProfile{1.0, 0.5}, WorkerProfile{0.1, 3.0}}) {
    const double u = optimal_normalized_deadline(w);
    EXPECT_GT(u, w.shift);
    const double g = std::exp(w.straggle * (u - w.shift)) - 1.0 -
                     w.straggle * u;
    EXPECT_NEAR(g, 0.0, 1e-6 * (1.0 + w.straggle * u));
  }
}

TEST(OptimalNormalizedDeadline, PaperParametersLandNearKnownValues) {
  // mu = 1, a = 20: u - 20 = log(1 + u) -> u ~ 23.19;
  // mu = 20, a = 20: u - 20 = log(1 + 20u)/20 -> u ~ 20.3.
  EXPECT_NEAR(optimal_normalized_deadline({20.0, 1.0}), 23.19, 0.05);
  EXPECT_NEAR(optimal_normalized_deadline({20.0, 20.0}), 20.30, 0.05);
}

TEST(OptimalNormalizedDeadline, ZeroShiftSignalsCapSaturation) {
  EXPECT_DOUBLE_EQ(optimal_normalized_deadline({0.0, 2.0}), 0.0);
}

TEST(AllocateLoads, MeetsTargetAndRespectsCap) {
  const auto workers = fig5_cluster();
  const std::size_t m = 500;
  const auto s =
      static_cast<std::size_t>(std::floor(m * std::log(double(m))));
  const auto alloc = allocate_loads(workers, s, m);
  ASSERT_EQ(alloc.loads.size(), workers.size());
  std::size_t total = 0;
  for (std::size_t l : alloc.loads) {
    EXPECT_LE(l, m);
    total += l;
  }
  EXPECT_GE(total, s);
  EXPECT_GT(alloc.deadline, 0.0);
  EXPECT_GE(alloc.expected_units, 0.9 * static_cast<double>(s));
}

TEST(AllocateLoads, FasterWorkersGetWeaklyMoreLoad) {
  const auto workers = fig5_cluster();
  const auto alloc = allocate_loads(workers, 3000, 500);
  // All slow workers share one load value, all fast another, fast >= slow.
  for (std::size_t i = 1; i < 95; ++i) {
    EXPECT_EQ(alloc.loads[i], alloc.loads[0]);
  }
  for (std::size_t i = 96; i < 100; ++i) {
    EXPECT_EQ(alloc.loads[i], alloc.loads[95]);
  }
  EXPECT_GE(alloc.loads[95], alloc.loads[0]);
}

TEST(AllocateLoads, InfeasibleTargetAsserts) {
  const std::vector<WorkerProfile> workers = {{1.0, 1.0}};
  EXPECT_THROW(allocate_loads(workers, 100, 10), coupon::AssertionError);
}

TEST(LoadBalanced, SumsToMAndTracksSpeed) {
  const auto workers = fig5_cluster();
  const auto loads = load_balanced_assignment(workers, 500);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::size_t{0}),
            500u);
  // mu-proportional: slow ~ 500/195 ~ 2.56, fast ~ 51.3.
  for (std::size_t i = 0; i < 95; ++i) {
    EXPECT_GE(loads[i], 2u);
    EXPECT_LE(loads[i], 3u);
  }
  for (std::size_t i = 95; i < 100; ++i) {
    EXPECT_GE(loads[i], 51u);
    EXPECT_LE(loads[i], 52u);
  }
}

TEST(LoadBalanced, UniformClusterGetsEvenSplit) {
  const std::vector<WorkerProfile> workers(4, WorkerProfile{1.0, 2.0});
  const auto loads = load_balanced_assignment(workers, 10);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::size_t{0}),
            10u);
  for (std::size_t l : loads) {
    EXPECT_GE(l, 2u);
    EXPECT_LE(l, 3u);
  }
}

TEST(SimulateGeneralizedBcc, FullReplicationCoversWithOneWorker) {
  stats::Rng rng(5);
  const std::vector<WorkerProfile> workers = {{1.0, 1.0}, {1.0, 1.0}};
  const std::vector<std::size_t> loads = {10, 10};
  const auto report = run_once(cluster_of(workers), 10, loads, rng);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.workers_heard, 1u);
  EXPECT_GE(report.total_time, 10.0);  // a * r floor
}

TEST(SimulateLoadBalanced, TimeIsMaxOverLoadedWorkers) {
  stats::Rng rng(6);
  const std::vector<WorkerProfile> workers = {{1.0, 1.0}, {5.0, 1.0},
                                              {1.0, 1.0}};
  const std::vector<std::size_t> loads = {1, 4, 0};
  const UncodedScheme lb(loads);
  const auto run = simulate::simulate_run(
      lb, cluster_of(workers), {.iterations = 50, .record_trace = true}, rng);
  EXPECT_EQ(run.failures, 0u);
  for (const auto& it : run.iterations) {
    EXPECT_EQ(it.workers_heard, 3u);  // wait-for-all, the idle one too
    EXPECT_GE(it.total_time, 20.0);   // worker 1's floor a*r = 5*4 dominates
    EXPECT_EQ(it.total_time, it.compute_time);  // no ingress cost
  }
}

TEST(Theorem2C, MatchesFormula) {
  // c = 2 + log(a + H_n / mu) / log m with a = 20, mu = 1, n = 100, m = 500.
  const auto workers = fig5_cluster();
  const double c = theorem2_c(workers, 500);
  const double expected =
      2.0 + std::log(20.0 + theory::harmonic(100) / 1.0) / std::log(500.0);
  EXPECT_NEAR(c, expected, 1e-12);
  EXPECT_GT(c, 2.0);
  EXPECT_LT(c, 3.0);
}


TEST(RefineLoads, NeverWorsensTheEstimateAndPreservesTotals) {
  std::vector<WorkerProfile> workers(12);
  for (std::size_t i = 0; i < 12; ++i) {
    workers[i] = {1.0 + 0.5 * static_cast<double>(i % 3),
                  0.5 + static_cast<double>(i % 4)};
  }
  const std::size_t m = 40;
  const std::size_t s = 80;
  const auto initial = allocate_loads(workers, s, m);
  const std::size_t initial_total = std::accumulate(
      initial.loads.begin(), initial.loads.end(), std::size_t{0});

  stats::Rng rng(9);
  const auto refined =
      refine_loads(workers, initial.loads, s, 200, 300, m, rng);

  // Baseline estimate under the same common random numbers.
  stats::Rng rng2(9);
  const auto baseline =
      refine_loads(workers, initial.loads, s, 0, 300, m, rng2);
  EXPECT_LE(refined.estimate, baseline.estimate + 1e-12);

  const std::size_t refined_total = std::accumulate(
      refined.loads.begin(), refined.loads.end(), std::size_t{0});
  EXPECT_EQ(refined_total, initial_total);
  for (std::size_t l : refined.loads) {
    EXPECT_LE(l, m);
  }
}

TEST(RefineLoads, ImprovesADeliberatelyBadAllocation) {
  // Everything piled on one slow worker: the hill climber must spread it.
  std::vector<WorkerProfile> workers = {{5.0, 0.5}, {1.0, 5.0}, {1.0, 5.0}};
  std::vector<std::size_t> bad = {30, 0, 0};
  stats::Rng rng(10);
  const auto refined = refine_loads(workers, bad, 30, 600, 200, 30, rng);
  stats::Rng rng2(10);
  const auto baseline = refine_loads(workers, {30, 0, 0}, 30, 0, 200, 30,
                                     rng2);
  EXPECT_LT(refined.estimate, 0.7 * baseline.estimate);
  EXPECT_LT(refined.loads[0], 30u);  // load actually moved off the slow one
}

TEST(Fig5, GeneralizedBccBeatsLoadBalancing) {
  // The paper's Fig. 5: ~29% mean computation-time reduction.
  const auto workers = fig5_cluster();
  const std::size_t m = 500;
  const auto s =
      static_cast<std::size_t>(std::floor(m * std::log(double(m))));
  const auto alloc = allocate_loads(workers, s, m);
  const auto lb_loads = load_balanced_assignment(workers, m);

  // With the paper's s = floor(m log m) the placement misses coverage on
  // a sizable fraction of draws (the coupon-collector Gumbel tail), so
  // the comparison conditions on covering placements — the operational
  // semantics of drawing a placement once and redrawing if it cannot
  // possibly cover.
  stats::Rng rng(7);
  const auto cluster = cluster_of(workers);
  stats::OnlineStats bcc_time;
  std::size_t failures = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    const auto time = coverage_time(cluster, m, alloc.loads, rng);
    if (!time) {
      ++failures;
      continue;
    }
    bcc_time.add(*time);
  }
  const UncodedScheme lb(lb_loads);
  const auto lb_run = simulate::simulate_run(
      lb, cluster, {.iterations = static_cast<std::size_t>(trials)}, rng);
  const double lb_mean = lb_run.total_time / trials;
  EXPECT_LT(failures, trials * 6 / 10);
  ASSERT_GT(bcc_time.count(), 100u);
  const double reduction = 1.0 - bcc_time.mean() / lb_mean;
  EXPECT_GT(reduction, 0.10);
  EXPECT_LT(reduction, 0.50);
}

TEST(Theorem2, SandwichHoldsStatistically) {
  // min E[T-hat(m)] <= E[T_coverage] <= min E[T-hat(floor(c m log m))] + 1,
  // evaluated with the allocator's loads on a small cluster.
  std::vector<WorkerProfile> workers(20);
  for (std::size_t i = 0; i < 20; ++i) {
    workers[i] = {2.0, i < 15 ? 1.0 : 5.0};
  }
  const std::size_t m = 60;
  const double c = theorem2_c(workers, m);
  const auto s_upper = static_cast<std::size_t>(
      std::floor(c * static_cast<double>(m) * std::log(double(m))));

  stats::Rng rng(8);
  const auto lower_alloc = allocate_loads(workers, m, m);
  const double lower =
      mc_expected_t_hat(workers, lower_alloc.loads, m, 2000, rng);

  const auto upper_alloc = allocate_loads(workers, s_upper, m);
  const double upper =
      mc_expected_t_hat(workers, upper_alloc.loads, s_upper, 2000, rng) + 1.0;

  const auto cluster = cluster_of(workers);
  stats::OnlineStats coverage;
  for (int t = 0; t < 1000; ++t) {
    if (const auto time = coverage_time(cluster, m, upper_alloc.loads, rng)) {
      coverage.add(*time);
    }
  }
  ASSERT_GT(coverage.count(), 900u);
  EXPECT_LE(lower, coverage.mean() + 3.0 * coverage.sem());
  EXPECT_LE(coverage.mean(), upper + 3.0 * coverage.sem());
}

}  // namespace
}  // namespace coupon::core::hetero
