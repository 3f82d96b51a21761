#pragma once

/// \file hetero.hpp
/// The math of generalized BCC for heterogeneous clusters (Section IV of
/// the paper): the P2 load allocator, T-hat(s), and Theorem 2's constant.
/// Simulation goes through the common timing kernel: generalized BCC is
/// `SimpleRandomScheme(m, loads, rng)` and the load-balancing (LB)
/// baseline is `UncodedScheme(load_balanced_assignment(...))`, both run
/// by `simulate::simulate_run` with per-worker latency overrides
/// (bench/fig5_heterogeneous.cpp, examples/heterogeneous_cluster.cpp).
///
/// Model: worker i, assigned r_i examples, finishes (computes all its
/// partial gradients and delivers them, each communicated separately) at
/// a shift-exponential time (Eq. 15)
///
///     Pr[T_i <= t] = 1 - exp(-(mu_i/r_i)(t - a_i r_i)),  t >= a_i r_i.
///
/// The master achieves *coverage* once the union of delivered example
/// sets is everything (Eq. 16). Theorem 2 sandwiches the optimal expected
/// coverage time between min E[T-hat(m)] and min E[T-hat(floor(c m log m))]
/// + 1, where T-hat(s) (Eq. 18) is the first time the received partial
/// gradients (with repetitions) number at least s.
///
/// The load allocation subproblem P2 — pick (r_1..r_n) minimizing
/// E[T-hat(s)] — is solved with the deadline-based allocator of
/// Reisizadeh et al. [16]: for a deadline tau, the load maximizing worker
/// i's expected delivered units  l * Pr[T_i(l) <= tau]  is l = tau/u_i*,
/// where u_i* is the unique root > a_i of  exp(mu (u - a)) = 1 + mu u;
/// binary-searching the smallest tau whose total expected delivery
/// reaches s gives an asymptotically optimal integer allocation.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "stats/rng.hpp"

namespace coupon::core::hetero {

/// Worker latency profile of Eq. 15.
struct WorkerProfile {
  double shift = 0.0;     ///< a_i >= 0, seconds of deterministic work/example
  double straggle = 1.0;  ///< mu_i > 0, exponential tail parameter
};

/// T-hat(s) of Eq. 18: first time the cumulative delivered load reaches
/// `s`. Returns +infinity when total load < s.
double t_hat(std::span<const double> completion_times,
             std::span<const std::size_t> loads, std::size_t s);

/// Monte-Carlo estimate of E[T-hat(s)] for a fixed allocation, over
/// `trials` fresh Eq. 15 draws per worker (unloaded workers never report).
double mc_expected_t_hat(std::span<const WorkerProfile> workers,
                         std::span<const std::size_t> loads, std::size_t s,
                         std::size_t trials, stats::Rng& rng);

/// The per-worker optimal normalized deadline u* (root of
/// exp(mu(u - a)) = 1 + mu u with u > a). For a == 0 the maximizer is
/// unbounded (pure exponential: more load strictly better) and the
/// allocator saturates the load cap instead; this returns 0 then.
double optimal_normalized_deadline(const WorkerProfile& worker);

/// Result of the P2 allocator.
struct AllocationResult {
  std::vector<std::size_t> loads;  ///< r_i, each in [0, max_load]
  double deadline = 0.0;           ///< the tau achieving the target
  double expected_units = 0.0;     ///< sum_i E[delivered units by tau]
};

/// Allocates integer loads targeting `target_units` expected deliveries
/// by the smallest possible common deadline (Remark 6 uses
/// target_units = floor(m log m)). `max_load` caps each r_i (a worker
/// cannot hold more than m distinct examples).
AllocationResult allocate_loads(std::span<const WorkerProfile> workers,
                                std::size_t target_units,
                                std::size_t max_load);

/// Result of `refine_loads`.
struct RefineResult {
  std::vector<std::size_t> loads;
  double estimate = 0.0;  ///< CRN Monte-Carlo estimate of E[T-hat(s)]
};

/// Local-search refinement of a P2 allocation: hill-climbs single-unit
/// moves between worker pairs, accepting a move when a common-random-
/// numbers Monte-Carlo estimate of E[T-hat(s)] improves (the same Exp(1)
/// draws are reused across candidate allocations, so the estimate is a
/// deterministic function of the loads and the search cannot chase
/// noise). The total load is preserved; per-worker loads stay in
/// [0, max_load]. Typically shaves a few percent off the analytic
/// allocator's deadline at moderate n.
RefineResult refine_loads(std::span<const WorkerProfile> workers,
                          std::vector<std::size_t> initial_loads,
                          std::size_t s, std::size_t steps,
                          std::size_t trials, std::size_t max_load,
                          stats::Rng& rng);

/// The paper's "load balancing" (LB) baseline: r_i proportional to mu_i,
/// summing to exactly `num_examples` (largest-remainder rounding).
std::vector<std::size_t> load_balanced_assignment(
    std::span<const WorkerProfile> workers, std::size_t num_examples);

/// Theorem 2's constant c = 2 + log(a + H_n/mu) / log m with
/// a = max_i a_i and mu = min_i mu_i.
double theorem2_c(std::span<const WorkerProfile> workers,
                  std::size_t num_examples);

/// Convenience: +infinity.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace coupon::core::hetero
