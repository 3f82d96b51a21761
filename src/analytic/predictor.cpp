#include "analytic/predictor.hpp"

#include <algorithm>
#include <cmath>

#include "analytic/coverage.hpp"
#include "analytic/dist.hpp"
#include "analytic/order_stats.hpp"

namespace coupon::analytic {

namespace {

/// Slice weights below this are dropped from the exact expansions; the
/// truncated mass (and with it the absolute error on E[T], E[K], and the
/// failure probability) is bounded by n times this.
constexpr double kSliceFloor = 1e-14;
/// Ready-at-k weights below this are skipped in per-k quadrature and CDF
/// sums (same error argument).
constexpr double kReadyFloor = 1e-12;
/// Drop-count slices below this probability are skipped inside the
/// quantile bisection only (bias bounded by the skipped mass; means and
/// failure probabilities always use the full expansion).
constexpr double kQuantileSliceFloor = 1e-6;

/// Binomial(n, p) pmf by the ratio recurrence from the heavier end (see
/// order_stats.cpp for the underflow argument).
std::vector<double> binomial_weights(std::size_t n, double p) {
  std::vector<double> pmf(n + 1, 0.0);
  if (p <= 0.0) {
    pmf[0] = 1.0;
    return pmf;
  }
  if (p >= 1.0) {
    pmf[n] = 1.0;
    return pmf;
  }
  if (p <= 0.5) {
    double term = std::pow(1.0 - p, static_cast<double>(n));
    for (std::size_t d = 0; d <= n; ++d) {
      pmf[d] = term;
      term *= (p / (1.0 - p)) * static_cast<double>(n - d) /
              static_cast<double>(d + 1);
    }
  } else {
    double term = std::pow(p, static_cast<double>(n));
    for (std::size_t d = n;; --d) {
      pmf[d] = term;
      if (d == 0) {
        break;
      }
      term *= ((1.0 - p) / p) * static_cast<double>(d) /
              static_cast<double>(n - d + 1);
    }
  }
  return pmf;
}

/// One drop-count slice: R workers present, and the conditional law of
/// the arrival index at which the iteration stops.
struct Slice {
  double weight = 0.0;        ///< P(R present)
  std::size_t present = 0;    ///< R
  std::vector<double> ready;  ///< ready[k-1] = P(stop at arrival k | R)
  double fail = 0.0;          ///< P(coverage failure | R) = 1 - A[R]
};

/// Expands the coverage profile against the drop law. Slices with
/// R == 0 are folded into `zero_weight` (T = 0, K = 0, failure).
std::vector<Slice> make_slices(const std::vector<double>& a, std::size_t n,
                               double drop_probability,
                               double* zero_weight) {
  const std::vector<double> weights =
      binomial_weights(n, 1.0 - drop_probability);
  std::vector<Slice> slices;
  *zero_weight = weights[0];
  for (std::size_t r = 1; r <= n; ++r) {
    if (weights[r] < kSliceFloor) {
      continue;
    }
    Slice slice;
    slice.weight = weights[r];
    slice.present = r;
    slice.ready.resize(r, 0.0);
    for (std::size_t k = 1; k < r; ++k) {
      slice.ready[k - 1] = std::max(0.0, a[k] - a[k - 1]);
    }
    slice.ready[r - 1] = std::max(0.0, 1.0 - a[r - 1]);
    slice.fail = std::max(0.0, 1.0 - a[r]);
    slices.push_back(std::move(slice));
  }
  return slices;
}

/// E[T | R] = sum_k P(stop at k) E[c_k | R present].
double slice_mean(const Slice& slice, const ComputeDist& dist, double service,
                  double broadcast) {
  if (dist.is_pure_shifted_exp()) {
    const ShiftedExpComponent& c = dist.components().front();
    const std::vector<double> means = expected_completions_shifted_exp(
        c.shift, c.rate, slice.present, service, broadcast);
    double mean = 0.0;
    for (std::size_t k = 1; k <= slice.present; ++k) {
      mean += slice.ready[k - 1] * means[k - 1];
    }
    return mean;
  }
  double mean = 0.0;
  for (std::size_t k = 1; k <= slice.present; ++k) {
    if (slice.ready[k - 1] < kReadyFloor) {
      continue;
    }
    mean += slice.ready[k - 1] *
            completion_mean_quadrature(dist, slice.present, k, service,
                                       broadcast);
  }
  return mean;
}

/// P(T <= x) over the retained slices (plus the R = 0 atom at zero).
double mixture_cdf(const std::vector<Slice>& slices, double zero_weight,
                   const ComputeDist& dist, double service, double broadcast,
                   double x) {
  double p = x >= 0.0 ? zero_weight : 0.0;
  for (const Slice& slice : slices) {
    if (slice.weight < kQuantileSliceFloor) {
      continue;
    }
    double inner = 0.0;
    for (std::size_t k = 1; k <= slice.present; ++k) {
      if (slice.ready[k - 1] < kReadyFloor) {
        continue;
      }
      inner += slice.ready[k - 1] *
               completion_cdf(dist, slice.present, k, service, broadcast, x);
    }
    p += slice.weight * inner;
  }
  return p;
}

double mixture_quantile(const std::vector<Slice>& slices, double zero_weight,
                        const ComputeDist& dist, double service,
                        double broadcast, std::size_t num_workers, double q) {
  if (zero_weight >= q) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = broadcast +
              static_cast<double>(num_workers) * service +
              dist.upper_bracket(1e-12);
  while ((hi - lo) > 1e-10 * std::max(1.0, hi)) {
    const double mid = 0.5 * (lo + hi);
    if (mixture_cdf(slices, zero_weight, dist, service, broadcast, mid) >=
        q) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

std::optional<Prediction> predict(const core::Scheme& scheme,
                                  const simulate::ClusterConfig& cluster,
                                  const PredictOptions& options,
                                  std::string* reason) {
  const auto set_reason = [&](std::string why) {
    if (reason != nullptr) {
      *reason = std::move(why);
    }
  };
  CoverageResult reduced = coverage_profile(scheme);
  if (!reduced.profile.has_value()) {
    set_reason(std::move(reduced.reason));
    return std::nullopt;
  }

  const std::size_t n = scheme.num_workers();
  const simulate::LatencyLaw law =
      simulate::make_latency_model(cluster, n)->law();
  const std::size_t load = scheme.placement().worker(0).size();
  std::string law_reason;
  const std::optional<ComputeDist> dist = ComputeDist::from_law(
      law, static_cast<double>(load), &law_reason);
  if (!dist.has_value()) {
    set_reason(std::move(law_reason));
    return std::nullopt;
  }

  const double service =
      reduced.profile->message_units * cluster.unit_transfer_seconds;
  const double broadcast = cluster.broadcast_seconds;
  double zero_weight = 0.0;
  const std::vector<Slice> slices = make_slices(
      reduced.profile->table, n, cluster.drop_probability, &zero_weight);

  Prediction p;
  p.scheme = std::string(scheme.registry_name());
  p.load = load;
  p.message_units = reduced.profile->message_units;
  p.failure_probability = zero_weight;
  for (const Slice& slice : slices) {
    p.failure_probability += slice.weight * slice.fail;
    double expected_stop = 0.0;
    for (std::size_t k = 1; k <= slice.present; ++k) {
      expected_stop += slice.ready[k - 1] * static_cast<double>(k);
    }
    p.expected_workers += slice.weight * expected_stop;
    p.expected_time +=
        slice.weight * slice_mean(slice, *dist, service, broadcast);
  }
  p.expected_units = p.expected_workers * p.message_units;
  if (options.quantiles) {
    const auto quantile = [&](double q) {
      return mixture_quantile(slices, zero_weight, *dist, service, broadcast,
                              n, q);
    };
    p.p50 = quantile(0.50);
    p.p95 = quantile(0.95);
    p.p99 = quantile(0.99);
    p.has_quantiles = true;
  }
  return p;
}

}  // namespace coupon::analytic
