#pragma once

/// \file distributions.hpp
/// Parametric distributions used by the latency models.
///
/// The paper models worker completion time with a *shifted exponential*
/// (Eq. 15): for a worker with straggler parameter mu, shift parameter a,
/// and computational load r,
///
///     Pr[T <= t] = 1 - exp(-(mu/r) * (t - a*r)),   t >= a*r.
///
/// i.e. a deterministic ramp `a*r` plus an exponential tail with rate
/// `mu/r` (both the floor and the tail scale linearly in the load).

#include <cstdint>

#include "stats/rng.hpp"

namespace coupon::stats {

/// Exponential distribution with rate `lambda` (mean 1/lambda).
struct Exponential {
  double lambda = 1.0;

  double sample(Rng& rng) const { return rng.exponential(lambda); }
  double mean() const { return 1.0 / lambda; }
  double variance() const { return 1.0 / (lambda * lambda); }
  double cdf(double t) const;
  /// Inverse CDF; p in [0, 1).
  double quantile(double p) const;
};

/// The paper's shifted-exponential completion-time model (Eq. 15).
///
/// `shift` is the deterministic minimum (a*r in the paper) and `rate` the
/// exponential tail rate (mu/r in the paper). Use `for_load` to build the
/// model directly from worker parameters (a, mu) and a load r.
struct ShiftedExponential {
  double shift = 0.0;  ///< deterministic floor, must be >= 0
  double rate = 1.0;   ///< tail rate, must be > 0

  /// Builds the model of Eq. 15 for a worker with shift parameter `a`,
  /// straggler parameter `mu`, processing `load` examples.
  static ShiftedExponential for_load(double a, double mu, double load);

  double sample(Rng& rng) const;
  double mean() const { return shift + 1.0 / rate; }
  double variance() const { return 1.0 / (rate * rate); }
  double cdf(double t) const;
  /// Inverse CDF; p in [0, 1).
  double quantile(double p) const;
};

/// Pareto (type I) distribution: Pr[T <= t] = 1 - (scale/t)^shape for
/// t >= scale. The heavy-tailed completion-time law of the related-work
/// cluster studies (Karakus et al.): for shape <= 2 the variance is
/// infinite and for shape <= 1 even the mean diverges, so none of the
/// paper's shifted-exponential order-statistics predictions (Eq. 15 and
/// the H_n waiting times built on it) apply.
struct Pareto {
  double scale = 1.0;  ///< x_m, the left endpoint; must be > 0
  double shape = 2.0;  ///< alpha, the tail index; must be > 0

  double sample(Rng& rng) const;
  /// Mean scale*shape/(shape-1); requires shape > 1 (diverges otherwise).
  double mean() const;
  /// Variance scale^2*shape/((shape-1)^2(shape-2)); requires shape > 2.
  double variance() const;
  double cdf(double t) const;
  /// Inverse CDF; p in [0, 1).
  double quantile(double p) const;
};

/// Weibull distribution: Pr[T <= t] = 1 - exp(-(t/scale)^shape), t >= 0.
/// shape < 1 gives a subexponential (stretched-exponential) tail — slow
/// workers are rarer than Pareto but far more common than Eq. 15
/// predicts; shape = 1 recovers Exponential{1/scale}.
struct Weibull {
  double shape = 1.0;  ///< k; must be > 0
  double scale = 1.0;  ///< lambda; must be > 0

  double sample(Rng& rng) const;
  double mean() const;      ///< scale * Gamma(1 + 1/shape)
  double variance() const;  ///< scale^2 * (Gamma(1+2/k) - Gamma(1+1/k)^2)
  double cdf(double t) const;
  /// Inverse CDF; p in [0, 1).
  double quantile(double p) const;
};

}  // namespace coupon::stats
