#include "core/hetero.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/theory.hpp"
#include "util/assert.hpp"

namespace coupon::core::hetero {

double t_hat(std::span<const double> completion_times,
             std::span<const std::size_t> loads, std::size_t s) {
  COUPON_ASSERT(completion_times.size() == loads.size());
  // Sort worker indices by completion time and accumulate loads.
  std::vector<std::size_t> order(loads.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return completion_times[a] < completion_times[b];
  });
  std::size_t received = 0;
  for (std::size_t i : order) {
    if (completion_times[i] == kInf) {
      break;
    }
    received += loads[i];
    if (received >= s) {
      return completion_times[i];
    }
  }
  return kInf;
}

namespace {

/// Mean T-hat(s) over trial-major Exp(1) draws `base` (n per trial):
/// worker i's Eq. 15 completion time under load l is a_i l + (l/mu_i) *
/// base. Unloaded workers never report.
double mean_t_hat(std::span<const WorkerProfile> workers,
                  std::span<const std::size_t> loads, std::size_t s,
                  std::span<const double> base) {
  const std::size_t n = workers.size();
  COUPON_ASSERT(loads.size() == n && n > 0 && !base.empty() &&
                base.size() % n == 0);
  const std::size_t trials = base.size() / n;
  std::vector<double> times(n);
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto l = static_cast<double>(loads[i]);
      times[i] = loads[i] == 0 ? kInf
                               : workers[i].shift * l +
                                     l / workers[i].straggle * base[t * n + i];
    }
    const double v = t_hat(times, loads, s);
    COUPON_ASSERT_MSG(v != kInf, "T-hat(s) unreachable: total load < s");
    total += v;
  }
  return total / static_cast<double>(trials);
}

std::vector<double> exp1_draws(std::size_t count, stats::Rng& rng) {
  std::vector<double> base(count);
  for (double& b : base) {
    b = rng.exponential(1.0);
  }
  return base;
}

}  // namespace

double mc_expected_t_hat(std::span<const WorkerProfile> workers,
                         std::span<const std::size_t> loads, std::size_t s,
                         std::size_t trials, stats::Rng& rng) {
  return mean_t_hat(workers, loads, s,
                    exp1_draws(trials * workers.size(), rng));
}

double optimal_normalized_deadline(const WorkerProfile& worker) {
  const double a = worker.shift;
  const double mu = worker.straggle;
  COUPON_ASSERT(a >= 0.0 && mu > 0.0);
  if (a <= 0.0) {
    return 0.0;  // no deterministic floor: maximizer unbounded, cap binds
  }
  // Root of g(u) = exp(mu (u - a)) - 1 - mu u on (a, inf):
  // g(a) = -mu a < 0 and g grows exponentially, so bracket then bisect.
  auto g = [a, mu](double u) { return std::exp(mu * (u - a)) - 1.0 - mu * u; };
  double lo = a;
  double hi = a + 1.0 / mu;
  while (g(hi) < 0.0) {
    hi *= 2.0;
  }
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-12 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (g(mid) < 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

namespace {

/// Expected units worker delivers by deadline tau with integer load l:
/// l * Pr[T(l) <= tau].
double expected_delivered(const WorkerProfile& w, double load, double tau) {
  if (load <= 0.0) {
    return 0.0;
  }
  const double shift = w.shift * load;
  if (tau <= shift) {
    return 0.0;
  }
  const double rate = w.straggle / load;
  return load * (1.0 - std::exp(-rate * (tau - shift)));
}

/// Real-valued optimal load for deadline tau (before rounding/capping).
double continuous_load(double u_star, double tau, double cap) {
  if (u_star <= 0.0) {
    return cap;  // a == 0: saturate the cap
  }
  return std::min(cap, tau / u_star);
}

}  // namespace

AllocationResult allocate_loads(std::span<const WorkerProfile> workers,
                                std::size_t target_units,
                                std::size_t max_load) {
  COUPON_ASSERT(!workers.empty() && target_units > 0 && max_load > 0);
  const double cap = static_cast<double>(max_load);
  std::vector<double> u_star(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    u_star[i] = optimal_normalized_deadline(workers[i]);
  }

  // Feasibility: even with every load at the cap, expected deliveries
  // approach sum(cap) as tau -> inf; require sum(cap) >= target.
  COUPON_ASSERT_MSG(cap * static_cast<double>(workers.size()) >=
                        static_cast<double>(target_units),
                    "target unreachable even at the load cap");

  auto total_expected = [&](double tau) {
    double sum = 0.0;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      sum += expected_delivered(
          workers[i], continuous_load(u_star[i], tau, cap), tau);
    }
    return sum;
  };

  // Bracket the smallest tau with total_expected(tau) >= target.
  double hi = 1.0;
  while (total_expected(hi) < static_cast<double>(target_units)) {
    hi *= 2.0;
    COUPON_ASSERT_MSG(hi < 1e18, "deadline search diverged");
  }
  double lo = 0.0;
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-9 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (total_expected(mid) < static_cast<double>(target_units) ? lo : hi) = mid;
  }
  const double tau = hi;

  AllocationResult result;
  result.deadline = tau;
  result.loads.resize(workers.size());
  std::size_t total_load = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const double l = continuous_load(u_star[i], tau, cap);
    result.loads[i] =
        std::min<std::size_t>(max_load,
                              static_cast<std::size_t>(std::llround(l)));
    total_load += result.loads[i];
  }
  // T-hat(s) must be finite: integer rounding may land the total below
  // the target, so top up the workers with the fastest expected
  // per-example service (smallest a + 1/mu).
  if (total_load < target_units) {
    std::vector<std::size_t> order(workers.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      const double sx = workers[x].shift + 1.0 / workers[x].straggle;
      const double sy = workers[y].shift + 1.0 / workers[y].straggle;
      return sx < sy;
    });
    std::size_t cursor = 0;
    while (total_load < target_units) {
      const std::size_t i = order[cursor % order.size()];
      ++cursor;
      if (result.loads[i] < max_load) {
        ++result.loads[i];
        ++total_load;
      }
      COUPON_ASSERT_MSG(cursor < 4 * workers.size() * max_load,
                        "load top-up failed");
    }
  }
  double expected = 0.0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    expected += expected_delivered(
        workers[i], static_cast<double>(result.loads[i]), tau);
  }
  result.expected_units = expected;
  return result;
}

RefineResult refine_loads(std::span<const WorkerProfile> workers,
                          std::vector<std::size_t> initial_loads,
                          std::size_t s, std::size_t steps,
                          std::size_t trials, std::size_t max_load,
                          stats::Rng& rng) {
  const std::size_t n = workers.size();
  COUPON_ASSERT(initial_loads.size() == n && trials > 0 && max_load > 0);

  // Common random numbers: one Exp(1) draw set, reused for every
  // candidate allocation.
  const std::vector<double> base = exp1_draws(trials * n, rng);
  RefineResult best{std::move(initial_loads), 0.0};
  best.estimate = mean_t_hat(workers, best.loads, s, base);
  for (std::size_t step = 0; step < steps; ++step) {
    const auto donor = static_cast<std::size_t>(rng.uniform_int(n));
    const auto receiver = static_cast<std::size_t>(rng.uniform_int(n));
    if (donor == receiver || best.loads[donor] == 0 ||
        best.loads[receiver] >= max_load) {
      continue;
    }
    --best.loads[donor];
    ++best.loads[receiver];
    const double candidate = mean_t_hat(workers, best.loads, s, base);
    if (candidate < best.estimate) {
      best.estimate = candidate;
    } else {
      ++best.loads[donor];  // revert
      --best.loads[receiver];
    }
  }
  return best;
}

std::vector<std::size_t> load_balanced_assignment(
    std::span<const WorkerProfile> workers, std::size_t num_examples) {
  COUPON_ASSERT(!workers.empty() && num_examples > 0);
  double mu_sum = 0.0;
  for (const auto& w : workers) {
    COUPON_ASSERT(w.straggle > 0.0);
    mu_sum += w.straggle;
  }
  // Largest-remainder rounding of the proportional shares, so the loads
  // sum to exactly m (disjoint placement covers everything exactly once).
  std::vector<std::size_t> loads(workers.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(workers.size());
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const double ideal =
        workers[i].straggle / mu_sum * static_cast<double>(num_examples);
    loads[i] = static_cast<std::size_t>(ideal);
    assigned += loads[i];
    remainders.emplace_back(ideal - std::floor(ideal), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < num_examples; ++k) {
    ++loads[remainders[k % remainders.size()].second];
    ++assigned;
  }
  return loads;
}

double theorem2_c(std::span<const WorkerProfile> workers,
                  std::size_t num_examples) {
  COUPON_ASSERT(!workers.empty() && num_examples > 1);
  double a = 0.0;
  double mu = kInf;
  for (const auto& w : workers) {
    a = std::max(a, w.shift);
    mu = std::min(mu, w.straggle);
  }
  const double hn = theory::harmonic(workers.size());
  return 2.0 + std::log(a + hn / mu) /
                   std::log(static_cast<double>(num_examples));
}

}  // namespace coupon::core::hetero
