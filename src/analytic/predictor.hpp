#pragma once

/// \file predictor.hpp
/// The analytic oracle's front end (DESIGN.md §10): exact per-iteration
/// predictions for a realized scheme on a described cluster — the
/// instant auto-tuner behind `coupon_run --predict` and `--scheme auto`
/// (driver/predict.hpp ranks candidates with it).
///
/// `predict` composes the three lower layers with zero simulation:
///
///   1. `coverage_profile` (coverage.hpp) reduces the realized placement
///      to a coverage profile A[j] and the common message size;
///   2. dist.hpp reduces the cluster's latency law at the scheme's load
///      to an exact compute-time distribution;
///   3. order_stats.hpp supplies the law of the k-th ingress completion.
///
/// Worker drops are marginalized exactly: the number of present workers
/// is Binomial(n, 1 - drop_probability); conditional on R present, the
/// first k arrivals are a uniform k-subset of all n workers (the
/// identity permutation is independent of the sorted times), so one
/// A-table serves every drop rate:
///
///   P(ready at k-th arrival | R) = A[k] - A[k-1]   (k < R),
///   P(drain all R | R)           = 1 - A[R-1],   T = c_R either way,
///   P(coverage failure | R)      = 1 - A[R],     and R = 0 gives T = 0.
///
/// Everything here is deterministic: two identical calls return
/// bitwise-identical doubles, and nothing under src/analytic/ links RNG.

#include <cstddef>
#include <optional>
#include <string>

#include "core/scheme.hpp"
#include "simulate/cluster_config.hpp"

namespace coupon::analytic {

/// Exact per-iteration metrics for one (scheme, cluster) pair.
struct Prediction {
  std::string scheme;             ///< registry name
  std::size_t load = 0;           ///< r of the candidate
  double expected_time = 0.0;     ///< E[T] per iteration, seconds
  double expected_workers = 0.0;  ///< E[K] (recovery-threshold accounting)
  double expected_units = 0.0;    ///< E[L] = E[K] * message_units
  double failure_probability = 0.0;  ///< per-iteration coverage failure
  double message_units = 1.0;     ///< per-worker message size, units
  bool has_quantiles = false;     ///< p50/p95/p99 below are valid
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Knobs for `predict`.
struct PredictOptions {
  /// Compute p50/p95/p99 of T (bisection over the exact CDF — the
  /// costliest part at n = 100; E[T] alone is much cheaper).
  bool quantiles = true;
};

/// Predicts per-iteration metrics for the realized `scheme` on
/// `cluster`. Returns nullopt — with `reason` explaining which half of
/// the reduction is missing — when the scheme has no analytic model,
/// the realized placement breaks exchangeability, or the latency law
/// has no closed form.
std::optional<Prediction> predict(const core::Scheme& scheme,
                                  const simulate::ClusterConfig& cluster,
                                  const PredictOptions& options = {},
                                  std::string* reason = nullptr);

}  // namespace coupon::analytic
