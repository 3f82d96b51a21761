#pragma once

/// \file uncoded.hpp
/// The uncoded baseline (Section III-C): the m units are split disjointly
/// and evenly across the n workers, each worker ships the sum of its
/// partial gradients, and the master must wait for *all* workers —
/// recovery threshold K = n, maximally exposed to stragglers.
///
/// With per-worker loads r_i this is also the paper's load-balancing (LB)
/// baseline for heterogeneous clusters (Section IV, Fig. 5): r_i
/// proportional to mu_i (`hetero::load_balanced_assignment`), disjoint.

#include <span>

#include "core/scheme.hpp"

namespace coupon::core {

/// Disjoint even split, wait-for-all.
class UncodedScheme final : public Scheme {
 public:
  /// Splits units contiguously; worker i gets either floor(m/n) or
  /// ceil(m/n) units. Requires m >= n >= 1 (every worker gets work; the
  /// paper's setting is m = n units via super-examples).
  UncodedScheme(std::size_t num_workers, std::size_t num_units);

  /// Worker i gets the next contiguous block of `loads[i]` units, so
  /// m = sum_i r_i. Zero loads are allowed (the worker reports an empty
  /// sum); m >= 1 is required.
  explicit UncodedScheme(std::span<const std::size_t> loads);

  std::string_view registry_name() const override { return "uncoded"; }
  std::string_view name() const override { return "uncoded"; }

  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override { return 1.0; }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override {
    return {static_cast<std::int64_t>(worker)};
  }
  std::unique_ptr<Collector> make_collector() const override;

  /// Exactly n: the master waits for everyone.
  std::optional<double> expected_recovery_threshold() const override {
    return static_cast<double>(num_workers());
  }

  /// Wait-for-all: no arrival set smaller than n recovers, so the
  /// selection kernel degenerates (correctly) to a full sort.
  std::size_t min_arrivals_hint() const override { return num_workers(); }
};

}  // namespace coupon::core
