#pragma once

/// \file gc_cyclic.hpp
/// Exact Gradient Coding over the cyclic placement of Tandon et al.
/// ("Gradient Coding: Avoiding Stragglers in Distributed Learning",
/// arXiv 1612.03301) — the systematic variant.
///
/// With m = n units and load r, worker i holds the r cyclically
/// consecutive units {i, i+1, ..., i+r-1 mod n}; every unit is replicated
/// on exactly r consecutive workers, so ANY set of n - s workers
/// (s = r - 1) covers all m units — the same worst-case straggler
/// tolerance and recovery threshold K = n - r + 1 as the coded `cr`
/// scheme (Eq. 7).
///
/// Where `cr` ships one linear combination per worker and decodes by a
/// least-squares solve, this scheme ships the r raw per-unit gradients
/// (the systematic form): the master slots the first received copy of
/// each unit and decodes by summing slots in unit order 0..m-1. All
/// copies of a unit's gradient are bitwise identical, so the decode is
/// bitwise-equal to the unit-ordered serial gradient sum for EVERY
/// arrival set of size >= n - s — no floating-point recombination error,
/// and partial decodes come for free. The price is communication: r
/// gradient units per message instead of cr's one (the classic
/// exactness-vs-bandwidth trade; see DESIGN.md scheme catalog).

#include "core/scheme.hpp"

namespace coupon::core {

/// Systematic exact gradient coding on the cyclic placement
/// (requires m == n). Construction is deterministic — no randomness.
class GcCyclicScheme final : public Scheme {
 public:
  /// Requires 1 <= load <= num_workers; num_units must equal
  /// num_workers (group into super-examples otherwise; footnote 1).
  GcCyclicScheme(std::size_t num_workers, std::size_t load);

  std::string_view registry_name() const override { return "gc_cyclic"; }
  std::string_view name() const override { return "gradient coding (cyclic)"; }

  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override {
    return static_cast<double>(load_);
  }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override;
  std::unique_ptr<Collector> make_collector() const override;

  /// K = n - s = n - r + 1: ready as soon as any n - s workers arrive.
  std::optional<double> expected_recovery_threshold() const override {
    return static_cast<double>(num_workers() - stragglers_tolerated());
  }

  /// s = r - 1.
  std::size_t stragglers_tolerated() const { return load_ - 1; }

  /// Exact wait quota: the collector counts distinct workers up to
  /// n - s, so no shorter arrival prefix can be ready.
  std::size_t min_arrivals_hint() const override {
    return num_workers() - stragglers_tolerated();
  }

 private:
  std::size_t load_;
};

}  // namespace coupon::core
