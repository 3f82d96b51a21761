#pragma once

/// \file sgc.hpp
/// Stochastic Gradient Coding of Bitar, Wootters & El Rouayheb
/// ("Stochastic Gradient Coding for Straggler Mitigation in Distributed
/// Learning", arXiv 1905.05383): balanced random redundancy with an
/// *approximate* decode.
///
/// Placement (m = n units, load r): every unit is replicated on exactly r
/// workers and every worker holds exactly r units, drawn at random as r
/// rounds of a random perfect matching between units and workers (a
/// random permutation per round, with within-worker duplicate repair) —
/// the pair-wise balanced construction of the paper, without the cyclic
/// structure that exact GC needs.
///
/// Each worker ships the single unscaled sum of its r unit gradients
/// (message size 1 unit, like `cr`/`uncoded`). The master stops after the
/// first k* = n - r + 1 distinct workers and returns the scaled partial
/// aggregate
///
///     ghat = (n / (r k)) * sum_{w in W} msg_w,    |W| = k,
///
/// which is UNBIASED for the true gradient sum S = sum_u g_u whenever the
/// arrival set W is exchangeable over workers (each worker equally likely
/// to be among the first k — true for i.i.d. compute times): every unit
/// appears in r of the n messages, so E[sum_W msg_w] = (k/n) r S. The
/// per-coordinate estimator variance is the finite-population sampling
/// variance (n/(rk))^2 * k(n-k)/(n-1) * Var_w(msg_w[j]) — see
/// `theory::sgc_estimator_variance_factor`. Decode is therefore
/// intentionally noisy: `SchemeCapabilities::approximate_recovery` is set,
/// downstream layers gate it statistically (unbiasedness + variance
/// bounds + convergence-to-target), never bitwise.

#include "core/scheme.hpp"

namespace coupon::core {

/// Stochastic gradient coding (requires m == n). Placement is random —
/// the factory draws it from the registry rng; decode is approximate.
class SgcScheme final : public Scheme {
 public:
  /// Requires 1 <= load <= num_workers and num_units == num_workers.
  SgcScheme(std::size_t num_workers, std::size_t load, stats::Rng& rng);

  std::string_view registry_name() const override { return "sgc"; }
  std::string_view name() const override { return "stochastic gradient coding"; }

  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override { return 1.0; }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override;
  std::unique_ptr<Collector> make_collector() const override;

  /// The wait quota k* = n - r + 1: same worker count as exact GC, but
  /// recovery is approximate rather than guaranteed.
  std::optional<double> expected_recovery_threshold() const override {
    return static_cast<double>(num_workers() - load_ + 1);
  }

  /// s = r - 1 stragglers ignored per iteration (approximately).
  std::size_t stragglers_tolerated() const { return load_ - 1; }

  /// Exact wait quota k* = n - r + 1: the collector counts distinct
  /// workers, so no shorter arrival prefix can be ready.
  std::size_t min_arrivals_hint() const override {
    return num_workers() - stragglers_tolerated();
  }

 private:
  std::size_t load_;
};

}  // namespace coupon::core
