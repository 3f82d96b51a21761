#pragma once

/// \file gc_nested.hpp
/// Nested Gradient Codes (arXiv 2212.08580): a ladder of codes tuned to
/// the *realized* straggler count instead of a worst-case s fixed at
/// construction.
///
/// With m = n units, load r | n, worker i holds the cyclic window
/// {i, ..., i+r-1 mod n} and ships one component per ladder level: for
/// each divisor w of r (ascending — the level widths), the sum of its
/// first w window units. Message size is therefore L = d(r) gradient
/// units (the number of divisors of r).
///
/// Decoding: the width-w components of the workers in one residue class
/// c mod w tile the unit range exactly (w | n), so ANY intact residue
/// class yields the exact full gradient sum. The master waits for
/// n - r + 1 distinct workers — at most r - 1 absentees can touch at
/// most r - 1 of the r classes mod r, so a width-r class always
/// survives (worst case), and when fewer stragglers materialize a
/// *narrower* width already has an intact class: the decoder walks the
/// ladder from the narrowest width up and decodes at the first (least
/// coded) level the arrival set supports. Fast iterations under light
/// straggling, full tolerance under heavy straggling, one placement.

#include "core/scheme.hpp"

namespace coupon::core {

/// Nested gradient coding on the cyclic placement (requires m == n and
/// r | n). Construction is deterministic — no randomness.
class GcNestedScheme final : public Scheme {
 public:
  /// Requires 1 <= load <= num_workers, load | num_workers, and
  /// num_units == num_workers.
  GcNestedScheme(std::size_t num_workers, std::size_t load);

  std::string_view registry_name() const override { return "gc_nested"; }
  std::string_view name() const override { return "nested gradient coding"; }

  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override {
    return static_cast<double>(widths_.size());
  }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override;
  std::unique_ptr<Collector> make_collector() const override;

  /// K = n - r + 1: worst-case ladder level r guarantees recovery there.
  std::optional<double> expected_recovery_threshold() const override {
    return static_cast<double>(num_workers() - load_ + 1);
  }

  /// s = r - 1.
  std::size_t stragglers_tolerated() const { return load_ - 1; }

  /// Exact wait quota: the decoder waits for n - r + 1 distinct workers
  /// before walking the ladder, so no shorter prefix can be ready.
  std::size_t min_arrivals_hint() const override {
    return num_workers() - stragglers_tolerated();
  }

  /// The ladder's level widths: the divisors of r, ascending. The number
  /// of levels L = widths().size() is the per-message size in units.
  const std::vector<std::size_t>& widths() const { return widths_; }

 private:
  std::size_t load_;
  std::vector<std::size_t> widths_;
};

}  // namespace coupon::core
