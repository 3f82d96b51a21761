// Reproduces Fig. 5 of the paper: average computation time of the
// load-balanced (LB) assignment vs the generalized BCC scheme on a
// heterogeneous cluster of n = 100 workers processing m = 500 examples.
//
// Paper configuration: shift a_i = 20 for all workers, straggle mu_i = 1
// for 95 workers and mu_i = 20 for the remaining 5; generalized BCC uses
// the P2-optimal loads for s = floor(m log m). The paper reports a
// 29.28% reduction in average computation time (LB ~ 1000, BCC ~ 700).
//
// Both schemes run on the common timing kernel (`simulate_run`) with the
// Eq. 15 profiles as per-worker latency overrides and no ingress or
// broadcast cost, so an iteration's time is the compute time of the
// arrival that recovers. Generalized BCC is `SimpleRandomScheme` over
// the P2 loads: each trial draws a fresh placement and runs it for one
// iteration. LB is `UncodedScheme` over mu-proportional disjoint loads,
// run for one iteration alongside each covering placement.
//
// A placement whose union cannot cover all m examples can never finish
// (the run reports a failure); the table reports the coverage-conditional
// mean plus the failure rate. Conditioning is the operational semantics:
// a placement is drawn once and redrawn if it cannot possibly cover.

#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <span>

#include "core/hetero.hpp"
#include "core/simple_random.hpp"
#include "core/uncoded.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "util/util.hpp"

namespace {

namespace simulate = coupon::simulate;

/// Draws one generalized-BCC placement over `loads` and runs it for one
/// iteration: the coverage time, or nothing when it cannot cover.
std::optional<double> coverage_time(std::size_t m,
                                    std::span<const std::size_t> loads,
                                    const simulate::ClusterConfig& cluster,
                                    coupon::stats::Rng& rng) {
  const coupon::core::SimpleRandomScheme scheme(m, loads, rng);
  const auto run =
      simulate::simulate_run(scheme, cluster, {.iterations = 1}, rng);
  if (run.failures == 1) {
    return std::nullopt;
  }
  return run.total_time;
}

}  // namespace

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("m", 500, "training examples (paper: 500)")
      .add_int("n", 100, "workers (paper: 100)")
      .add_int("fast", 5, "number of fast workers with mu = 20 (paper: 5)")
      .add_double("shift", 20.0, "shift parameter a_i (paper: 20)")
      .add_int("trials", 2000, "Monte Carlo trials")
      .add_int("refine_steps", 400,
               "hill-climb steps for the refined allocation (0 disables)")
      .add_int("seed", 31415, "PRNG seed");
  if (!flags.parse(argc, argv)) {
    return 1;
  }
  const auto m = static_cast<std::size_t>(flags.get_int("m"));
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto fast = static_cast<std::size_t>(flags.get_int("fast"));
  const double shift = flags.get_double("shift");

  namespace hetero = coupon::core::hetero;
  std::vector<hetero::WorkerProfile> workers(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers[i] = {shift, i + fast < n ? 1.0 : 20.0};
  }

  const auto s =
      static_cast<std::size_t>(std::floor(static_cast<double>(m) *
                                          std::log(static_cast<double>(m))));
  const auto alloc = hetero::allocate_loads(workers, s, m);
  const auto lb_loads = hetero::load_balanced_assignment(workers, m);

  coupon::stats::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));

  // Optional extension: MC local-search refinement of the P2 allocation.
  const auto refine_steps =
      static_cast<std::size_t>(flags.get_int("refine_steps"));
  std::vector<std::size_t> refined_loads = alloc.loads;
  if (refine_steps > 0) {
    const auto refined = hetero::refine_loads(workers, alloc.loads, s,
                                              refine_steps, 200, m, rng);
    refined_loads = refined.loads;
  }

  simulate::ClusterConfig cluster;
  cluster.unit_transfer_seconds = 0.0;
  for (const auto& w : workers) {
    cluster.worker_overrides.push_back({w.shift, w.straggle});
  }

  const coupon::core::UncodedScheme lb(lb_loads);
  coupon::stats::OnlineStats bcc_time, refined_time, lb_time;
  std::size_t failures = 0;
  const auto trials = static_cast<std::size_t>(flags.get_int("trials"));
  for (std::size_t t = 0; t < trials; ++t) {
    const auto time = coverage_time(m, alloc.loads, cluster, rng);
    if (!time) {
      ++failures;
      continue;
    }
    bcc_time.add(*time);
    lb_time.add(
        simulate::simulate_run(lb, cluster, {.iterations = 1}, rng).total_time);
    if (refine_steps > 0) {
      if (const auto refined = coverage_time(m, refined_loads, cluster, rng)) {
        refined_time.add(*refined);
      }
    }
  }

  std::printf("Fig. 5 — heterogeneous cluster, m = %zu examples, n = %zu "
              "workers (%zu fast)\n\n", m, n, fast);
  const std::size_t lb_sum =
      std::accumulate(lb_loads.begin(), lb_loads.end(), std::size_t{0});
  const std::size_t bcc_sum =
      std::accumulate(alloc.loads.begin(), alloc.loads.end(), std::size_t{0});
  std::printf("generalized BCC loads: slow %zu / fast %zu (sum %zu, "
              "target s = %zu, deadline %.1f)\n",
              alloc.loads[0], alloc.loads[n - 1], bcc_sum, s, alloc.deadline);
  std::printf("LB loads:              slow %zu / fast %zu (sum %zu)\n\n",
              lb_loads[0], lb_loads[n - 1], lb_sum);

  coupon::AsciiTable table(
      {"assignment", "avg computation time", "std dev", "samples"});
  table.set_align(0, coupon::Align::kLeft);
  table.add_row({"LB (r_i ~ mu_i)", coupon::format_double(lb_time.mean(), 2),
                 coupon::format_double(lb_time.stddev(), 2),
                 std::to_string(lb_time.count())});
  table.add_row({"generalized BCC",
                 coupon::format_double(bcc_time.mean(), 2),
                 coupon::format_double(bcc_time.stddev(), 2),
                 std::to_string(bcc_time.count())});
  if (refined_time.count() > 0) {
    table.add_row({"generalized BCC (MC-refined loads)",
                   coupon::format_double(refined_time.mean(), 2),
                   coupon::format_double(refined_time.stddev(), 2),
                   std::to_string(refined_time.count())});
  }
  std::fputs(table.render().c_str(), stdout);

  const double reduction = 1.0 - bcc_time.mean() / lb_time.mean();
  std::printf("\nreduction in average computation time: %s "
              "(paper: 29.28%%)\n",
              coupon::format_percent(reduction, 2).c_str());
  std::printf("coverage failures: %zu / %zu placements (%s); means are "
              "conditional on coverage\n",
              failures, trials,
              coupon::format_percent(
                  static_cast<double>(failures) / static_cast<double>(trials),
                  1)
                  .c_str());
  return 0;
}
