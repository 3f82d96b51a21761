#pragma once

/// \file simple_random.hpp
/// The simple randomized baseline (Prior Art, Eqs. 5–6): each worker
/// selects r of the m units uniformly at random (without replacement,
/// independently across workers) and communicates every partial gradient
/// *individually* to the master. Coverage of all m units takes
/// K ≈ (m/r) log m workers on average — near optimal — but each worker
/// ships r gradient-sized messages, so the communication load blows up to
/// L ≈ m log m. BCC keeps the first property and fixes the second.
///
/// With per-worker loads r_i this is also the paper's generalized BCC for
/// heterogeneous clusters (Section IV, placement G0 of the Theorem 2
/// proof): worker i draws r_i distinct units, with r_i from the P2
/// allocator in core/hetero.hpp.

#include <span>

#include "core/scheme.hpp"

namespace coupon::core {

/// Per-example random placement with individual (unencoded) messages.
class SimpleRandomScheme final : public Scheme {
 public:
  /// Every worker draws r = `load` units, r in [1, m].
  SimpleRandomScheme(std::size_t num_workers, std::size_t num_units,
                     std::size_t load, stats::Rng& rng);

  /// Worker i draws `loads[i]` distinct units uniformly from the m, one
  /// `sample_without_replacement` per worker in worker order. Each load
  /// is in [0, m] and at least one is positive.
  SimpleRandomScheme(std::size_t num_units,
                     std::span<const std::size_t> loads, stats::Rng& rng);

  std::string_view registry_name() const override { return "simple_random"; }
  std::string_view name() const override { return "simple randomized"; }

  /// The message concatenates the worker's r per-unit gradients in the
  /// order of `meta` (which lists the unit indices); payload size is
  /// r * p doubles — r gradient units.
  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;

  double message_units(std::size_t worker) const override {
    return static_cast<double>(placement_.worker(worker).size());
  }

  std::vector<std::int64_t> message_meta(std::size_t worker) const override;

  std::unique_ptr<Collector> make_collector() const override;

  /// No convenient closed form (coverage with group draws); estimated
  /// empirically, ≈ (m/r) log m (Eq. 5).
  std::optional<double> expected_recovery_threshold() const override {
    return std::nullopt;
  }

  /// Each message covers at most max_i r_i distinct units, so covering
  /// all m units takes at least ceil(m / max_i r_i) arrivals.
  std::size_t min_arrivals_hint() const override {
    const std::size_t max_load = placement_.computational_load();
    return (num_units() + max_load - 1) / max_load;
  }
};

}  // namespace coupon::core
