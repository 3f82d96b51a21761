#pragma once

/// \file fractional_repetition.hpp
/// The fractional repetition (FR) scheme of Tandon et al. — the second
/// coded construction mentioned by the paper (footnote 2): unlike CR it
/// may finish before n - s workers report, but it requires r | n.
///
/// With m = n units and load r: the n units are split into n/r disjoint
/// blocks of r consecutive units, and the n workers into r groups of n/r
/// workers; worker q of every group holds block q, so each block is
/// replicated r times. A worker ships the plain sum of its block's
/// partial gradients. The master is ready as soon as every block has been
/// heard from at least once — worst case it tolerates any s = r - 1
/// stragglers, and on average it finishes much earlier (this is the
/// "fractional scheme may finish when the master collects results from
/// less than m - r + 1 workers" remark).

#include "core/scheme.hpp"

namespace coupon::core {

/// Fractional repetition gradient coding (requires m == n and r | n).
class FractionalRepetitionScheme final : public Scheme {
 public:
  FractionalRepetitionScheme(std::size_t num_workers, std::size_t load);

  std::string_view registry_name() const override { return "fr"; }
  std::string_view name() const override { return "fractional repetition"; }

  void encode_into(std::size_t worker, const UnitGradientSource& source,
                   std::span<const double> w,
                   comm::Message& out) const override;
  double message_units(std::size_t) const override { return 1.0; }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override {
    return {static_cast<std::int64_t>(block_of_worker(worker))};
  }
  std::unique_ptr<Collector> make_collector() const override;

  /// The r workers of one block hold the same units in the same ascending
  /// order, so their messages are bitwise identical.
  std::optional<std::size_t> encode_group(std::size_t worker) const override {
    return block_of_worker(worker);
  }
  std::size_t num_encode_groups() const override { return num_blocks(); }

  /// No closed form for the average (block-coverage without replacement);
  /// worst case is n - r + 1. Estimated empirically in theory::.
  std::optional<double> expected_recovery_threshold() const override {
    return std::nullopt;
  }

  std::size_t stragglers_tolerated() const { return load_ - 1; }
  std::size_t num_blocks() const { return num_workers() / load_; }
  std::size_t block_of_worker(std::size_t worker) const;

  /// Block coverage needs at least one worker per block: n/r arrivals.
  std::size_t min_arrivals_hint() const override { return num_blocks(); }

 private:
  std::size_t load_;
};

}  // namespace coupon::core
