// Generalized BCC on a heterogeneous cluster (Section IV of the paper):
// computes the P2-optimal load allocation for a mixed fleet, compares it
// against the mu-proportional "load balancing" baseline, and prints the
// Theorem 2 sandwich around the measured coverage time.
//
// Both schemes run on the common timing kernel (`simulate_run`):
// generalized BCC is `SimpleRandomScheme` over the P2 loads (a fresh
// placement per trial), LB is `UncodedScheme` over the LB loads (one
// iteration per covering placement), and the worker profiles become
// per-worker latency overrides with no ingress or broadcast cost.
//
//   $ ./heterogeneous_cluster [--slow=95] [--fast=5] [--examples=500] ...

#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/hetero.hpp"
#include "core/simple_random.hpp"
#include "core/theory.hpp"
#include "core/uncoded.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "util/util.hpp"

int main(int argc, char** argv) {
  coupon::CliFlags flags;
  flags.add_int("slow", 95, "workers with straggle mu_slow")
      .add_int("fast", 5, "workers with straggle mu_fast")
      .add_double("mu_slow", 1.0, "straggle parameter of slow workers")
      .add_double("mu_fast", 20.0, "straggle parameter of fast workers")
      .add_double("shift", 20.0, "shift parameter a (same for all)")
      .add_int("examples", 500, "training examples m")
      .add_int("trials", 1500, "Monte Carlo trials")
      .add_int("seed", 4, "PRNG seed");
  if (!flags.parse(argc, argv)) {
    return 1;
  }
  namespace hetero = coupon::core::hetero;
  const auto slow = static_cast<std::size_t>(flags.get_int("slow"));
  const auto fast = static_cast<std::size_t>(flags.get_int("fast"));
  const auto m = static_cast<std::size_t>(flags.get_int("examples"));

  std::vector<hetero::WorkerProfile> workers;
  workers.reserve(slow + fast);
  for (std::size_t i = 0; i < slow; ++i) {
    workers.push_back({flags.get_double("shift"), flags.get_double("mu_slow")});
  }
  for (std::size_t i = 0; i < fast; ++i) {
    workers.push_back({flags.get_double("shift"), flags.get_double("mu_fast")});
  }

  // P2 allocation for the Remark 6 target s = floor(m log m).
  const auto s = static_cast<std::size_t>(
      std::floor(static_cast<double>(m) * std::log(static_cast<double>(m))));
  const auto alloc = hetero::allocate_loads(workers, s, m);
  const auto lb = hetero::load_balanced_assignment(workers, m);

  std::printf("Heterogeneous cluster: %zu slow + %zu fast workers, "
              "m = %zu examples\n", slow, fast, m);
  std::printf("P2 target s = floor(m log m) = %zu; allocator deadline "
              "tau = %.2f\n", s, alloc.deadline);
  std::printf("generalized BCC loads: slow %zu, fast %zu (sum %zu)\n",
              alloc.loads.front(), alloc.loads.back(),
              std::accumulate(alloc.loads.begin(), alloc.loads.end(),
                              std::size_t{0}));
  std::printf("LB loads:              slow %zu, fast %zu (sum %zu)\n\n",
              lb.front(), lb.back(),
              std::accumulate(lb.begin(), lb.end(), std::size_t{0}));

  namespace simulate = coupon::simulate;
  simulate::ClusterConfig cluster;
  cluster.unit_transfer_seconds = 0.0;
  for (const auto& w : workers) {
    cluster.worker_overrides.push_back({w.shift, w.straggle});
  }

  coupon::stats::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const auto trials = static_cast<std::size_t>(flags.get_int("trials"));
  const coupon::core::UncodedScheme lb_scheme(lb);
  coupon::stats::OnlineStats bcc_time, lb_time;
  std::size_t failures = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const coupon::core::SimpleRandomScheme bcc(m, alloc.loads, rng);
    const auto run =
        simulate::simulate_run(bcc, cluster, {.iterations = 1}, rng);
    if (run.failures == 1) {
      ++failures;  // this placement cannot cover all m examples
      continue;
    }
    bcc_time.add(run.total_time);
    lb_time.add(
        simulate::simulate_run(lb_scheme, cluster, {.iterations = 1}, rng)
            .total_time);
  }

  // Theorem 2 sandwich, evaluated by Monte Carlo.
  const double c = hetero::theorem2_c(workers, m);
  const auto s_upper = static_cast<std::size_t>(std::floor(
      c * static_cast<double>(m) * std::log(static_cast<double>(m))));
  const auto lower_alloc = hetero::allocate_loads(workers, m, m);
  const double lower =
      hetero::mc_expected_t_hat(workers, lower_alloc.loads, m, 2000, rng);
  const auto upper_alloc = hetero::allocate_loads(workers, s_upper, m);
  const double upper =
      hetero::mc_expected_t_hat(workers, upper_alloc.loads, s_upper, 2000,
                                rng) +
      1.0;

  coupon::AsciiTable table({"quantity", "time"});
  table.set_align(0, coupon::Align::kLeft);
  table.add_row({"Theorem 2 lower bound  min E[T^(m)]",
                 coupon::format_double(lower, 2)});
  table.add_row({"generalized BCC mean coverage time",
                 coupon::format_double(bcc_time.mean(), 2)});
  table.add_row({"Theorem 2 upper bound  min E[T^(c m log m)] + 1",
                 coupon::format_double(upper, 2)});
  table.add_row({"LB mean completion time",
                 coupon::format_double(lb_time.mean(), 2)});
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nreduction vs LB: %s (paper Fig. 5: 29.28%%); coverage "
              "failures %zu/%zu\n",
              coupon::format_percent(1.0 - bcc_time.mean() / lb_time.mean(),
                                     2)
                  .c_str(),
              failures, trials);
  return 0;
}
