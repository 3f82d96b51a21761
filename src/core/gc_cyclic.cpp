#include "core/gc_cyclic.hpp"

#include "core/collectors.hpp"
#include "util/assert.hpp"

namespace coupon::core {

GcCyclicScheme::GcCyclicScheme(std::size_t num_workers, std::size_t load)
    : Scheme(data::cyclic_windows(num_workers, load)), load_(load) {
  COUPON_ASSERT_MSG(num_workers >= 1, "need at least one worker");
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "load r must be in [1, n]");
}

void GcCyclicScheme::encode_into(std::size_t worker,
                                 const UnitGradientSource& source,
                                 std::span<const double> w,
                                 comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  encode_units(placement_.worker(worker), source, w, out);
}

std::vector<std::int64_t> GcCyclicScheme::message_meta(
    std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return units_meta(placement_.worker(worker));
}

/// Units are the coupons; the n - s worker quota is the gradient-coding
/// recovery rule, and the cyclic placement makes any n - s workers cover.
std::unique_ptr<Collector> GcCyclicScheme::make_collector() const {
  return std::make_unique<CoverageCollector>(
      std::vector<std::size_t>(num_units(), 1), num_workers(),
      num_workers() - stragglers_tolerated());
}

}  // namespace coupon::core
