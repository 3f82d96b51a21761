#pragma once

/// \file collectors.hpp
/// The two master-side collector families every built-in scheme uses
/// (DESIGN.md §11).
///
///   * `CoverageCollector` — the coupon collector of BCC (Sec. III): each
///     meta entry names one coupon (a batch, a block or a unit), the
///     first copy of each coupon is kept, and the decode sums coupons in
///     coupon order. Serves bcc, fr, simple_random and gc_cyclic.
///   * `WorkerSlotCollector` — waits for a fixed number of distinct
///     workers and keeps one payload per worker index; each scheme
///     supplies only its decode. Serves uncoded, sgc, gc_nested and cr.
///
/// Both decode from slots indexed by coupon or worker, never by arrival
/// position, so a decode is bitwise independent of arrival order for a
/// given arrival set.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/scheme.hpp"

namespace coupon::core {

/// One flat `slots x width` arena of kept payloads. The width is fixed by
/// the first stored payload, so a collector allocates nothing after its
/// first payload-carrying iteration, whichever slots it fills.
class SlotArena {
 public:
  explicit SlotArena(std::size_t slots) : slots_(slots) {}

  /// Copies `values` into `slot` and counts it as filled.
  void store(std::size_t slot, std::span<const double> values);

  /// The payload stored in `slot` (valid only after a `store` to it).
  std::span<const double> row(std::size_t slot) const {
    return {data_.data() + slot * width_, width_};
  }

  /// Number of `store` calls since construction or the last `clear`.
  std::size_t filled() const { return filled_; }

  /// Forgets every stored payload, keeping the arena's capacity.
  void clear() { filled_ = 0; }

 private:
  std::size_t slots_;
  std::size_t width_ = 0;
  std::size_t filled_ = 0;
  std::vector<double> data_;
};

/// Coupon-coverage collector. Message meta lists the coupons the message
/// carries; its payload is `meta.size()` equal slices, one per coupon.
/// Ready once every coupon is covered and at least `worker_quota`
/// distinct workers were heard (quota 0: coverage alone decides).
class CoverageCollector final : public Collector {
 public:
  /// `coupon_units[c]` is the number of units coupon c covers, reported
  /// by partial decodes. `num_workers` bounds the worker index and is
  /// only used when `worker_quota > 0`.
  CoverageCollector(std::vector<std::size_t> coupon_units,
                    std::size_t num_workers, std::size_t worker_quota);

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override;
  bool ready() const override { return ready_; }
  void decode_sum(std::span<double> grad_sum) const override;
  bool supports_partial_decode() const override { return true; }
  std::size_t decode_partial_sum(std::span<double> grad_sum) const override;

 private:
  void do_reset() override;
  std::span<const double> slot(std::size_t coupon) const;

  std::vector<std::size_t> coupon_units_;
  std::size_t worker_quota_;
  std::vector<bool> covered_;
  std::vector<bool> heard_;  // per worker; empty when worker_quota_ == 0
  SlotArena slots_;
  std::size_t num_covered_ = 0;
  std::size_t distinct_workers_ = 0;
  bool ready_ = false;
};

/// Distinct-worker collector: keeps each worker's first message in the
/// slot of its worker index and is ready at `worker_quota` distinct
/// workers. Subclasses implement only the decode, reading kept payloads
/// through `slot` and walking workers in ascending index order.
class WorkerSlotCollector : public Collector {
 public:
  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) final;
  bool ready() const final { return ready_; }

 protected:
  /// Every message is `units_per_message` gradient-sized components,
  /// and every offer adds that many units to L (Definition 3).
  WorkerSlotCollector(std::size_t num_workers, std::size_t worker_quota,
                      std::size_t units_per_message);

  std::size_t num_workers() const { return heard_.size(); }
  std::size_t distinct_workers() const { return distinct_workers_; }
  bool heard(std::size_t worker) const { return heard_[worker]; }

  /// The payload kept for `worker`; asserts every kept message had one.
  std::span<const double> slot(std::size_t worker) const;

 private:
  void do_reset() final;

  std::size_t worker_quota_;
  std::size_t units_per_message_;
  std::vector<bool> heard_;
  SlotArena slots_;
  std::size_t distinct_workers_ = 0;
  bool ready_ = false;
};

}  // namespace coupon::core
