#include "core/collectors.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

void SlotArena::store(std::size_t slot, std::span<const double> values) {
  COUPON_ASSERT(slot < slots_);
  if (data_.empty()) {
    width_ = values.size();
    data_.resize(slots_ * width_);
  }
  COUPON_ASSERT_MSG(values.size() == width_,
                    "payload size changed between offers");
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(slot * width_));
  ++filled_;
}

// --- CoverageCollector -------------------------------------------------------

CoverageCollector::CoverageCollector(std::vector<std::size_t> coupon_units,
                                     std::size_t num_workers,
                                     std::size_t worker_quota)
    : coupon_units_(std::move(coupon_units)),
      worker_quota_(worker_quota),
      covered_(coupon_units_.size(), false),
      heard_(worker_quota > 0 ? num_workers : 0, false),
      slots_(coupon_units_.size()) {}

bool CoverageCollector::offer(std::size_t worker,
                              std::span<const std::int64_t> meta,
                              std::span<const double> payload) {
  if (ready_) {
    return false;
  }
  // Every coupon the message carries crosses the wire, kept or not
  // (Definition 3 counts received size).
  note_offer(static_cast<double>(meta.size()));
  bool kept = false;
  if (worker_quota_ > 0) {
    COUPON_ASSERT(worker < heard_.size());
    if (heard_[worker]) {
      return false;  // duplicate delivery of the same worker's message
    }
    heard_[worker] = true;
    ++distinct_workers_;
    kept = true;
  }
  std::size_t dim = 0;
  if (!payload.empty()) {
    COUPON_ASSERT_MSG(!meta.empty() && payload.size() % meta.size() == 0,
                      "payload not a whole number of gradients");
    dim = payload.size() / meta.size();
  }
  for (std::size_t k = 0; k < meta.size(); ++k) {
    const auto coupon = static_cast<std::size_t>(meta[k]);
    COUPON_ASSERT(coupon < covered_.size());
    if (covered_[coupon]) {
      continue;  // duplicate coupon: the master discards it
    }
    covered_[coupon] = true;
    ++num_covered_;
    kept = true;
    if (dim > 0) {
      slots_.store(coupon, payload.subspan(k * dim, dim));
    }
  }
  const bool all_covered = num_covered_ == covered_.size();
  const bool quota_met = distinct_workers_ >= worker_quota_;
  // gc_cyclic's guarantee: n - s distinct cyclic windows of width s + 1
  // always cover all m = n units.
  COUPON_ASSERT_MSG(worker_quota_ == 0 || !quota_met || all_covered,
                    "cyclic placement failed to cover at threshold");
  ready_ = all_covered && quota_met;
  return kept;
}

std::span<const double> CoverageCollector::slot(std::size_t coupon) const {
  COUPON_ASSERT_MSG(slots_.filled() == num_covered_,
                    "decode without payloads");
  return slots_.row(coupon);
}

void CoverageCollector::decode_sum(std::span<double> grad_sum) const {
  COUPON_ASSERT_MSG(ready_, "decode before coverage");
  linalg::fill(grad_sum, 0.0);
  for (std::size_t c = 0; c < covered_.size(); ++c) {
    const auto row = slot(c);
    COUPON_ASSERT(row.size() == grad_sum.size());
    linalg::axpy(1.0, row, grad_sum);
  }
}

std::size_t CoverageCollector::decode_partial_sum(
    std::span<double> grad_sum) const {
  linalg::fill(grad_sum, 0.0);
  std::size_t units = 0;
  for (std::size_t c = 0; c < covered_.size(); ++c) {
    if (!covered_[c]) {
      continue;
    }
    const auto row = slot(c);
    COUPON_ASSERT(row.size() == grad_sum.size());
    linalg::axpy(1.0, row, grad_sum);
    units += coupon_units_[c];
  }
  return units;
}

void CoverageCollector::do_reset() {
  std::fill(covered_.begin(), covered_.end(), false);
  std::fill(heard_.begin(), heard_.end(), false);
  slots_.clear();
  num_covered_ = 0;
  distinct_workers_ = 0;
  ready_ = false;
}

// --- WorkerSlotCollector -----------------------------------------------------

WorkerSlotCollector::WorkerSlotCollector(std::size_t num_workers,
                                         std::size_t worker_quota,
                                         std::size_t units_per_message)
    : worker_quota_(worker_quota),
      units_per_message_(units_per_message),
      heard_(num_workers, false),
      slots_(num_workers) {}

bool WorkerSlotCollector::offer(std::size_t worker,
                                std::span<const std::int64_t> meta,
                                std::span<const double> payload) {
  (void)meta;
  if (ready_) {
    return false;
  }
  COUPON_ASSERT(worker < heard_.size());
  note_offer(static_cast<double>(units_per_message_));
  if (heard_[worker]) {
    return false;  // duplicate delivery of the same worker's message
  }
  heard_[worker] = true;
  ++distinct_workers_;
  if (!payload.empty()) {
    COUPON_ASSERT_MSG(payload.size() % units_per_message_ == 0,
                      "payload not a whole number of components");
    slots_.store(worker, payload);
  }
  ready_ = distinct_workers_ >= worker_quota_;
  return true;
}

std::span<const double> WorkerSlotCollector::slot(std::size_t worker) const {
  COUPON_ASSERT_MSG(slots_.filled() == distinct_workers_,
                    "decode without payloads");
  return slots_.row(worker);
}

void WorkerSlotCollector::do_reset() {
  std::fill(heard_.begin(), heard_.end(), false);
  slots_.clear();
  distinct_workers_ = 0;
  ready_ = false;
}

}  // namespace coupon::core
