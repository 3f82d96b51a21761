#include "core/simple_random.hpp"

#include "core/collectors.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

data::Placement draw_placement(std::size_t num_workers, std::size_t num_units,
                               std::size_t load, stats::Rng& rng) {
  data::Placement placement(num_workers, num_units);
  for (std::size_t i = 0; i < num_workers; ++i) {
    placement.worker(i) = rng.sample_without_replacement(num_units, load);
  }
  return placement;
}

}  // namespace

SimpleRandomScheme::SimpleRandomScheme(std::size_t num_workers,
                                       std::size_t num_units,
                                       std::size_t load, stats::Rng& rng)
    : Scheme(draw_placement(num_workers, num_units, load, rng)),
      load_(load) {
  COUPON_ASSERT_MSG(load >= 1 && load <= num_units,
                    "load r must be in [1, m]");
}

void SimpleRandomScheme::encode_into(std::size_t worker,
                                     const UnitGradientSource& source,
                                     std::span<const double> w,
                                     comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  encode_units(placement_.worker(worker), source, w, out);
}

std::vector<std::int64_t> SimpleRandomScheme::message_meta(
    std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return units_meta(placement_.worker(worker));
}

std::unique_ptr<Collector> SimpleRandomScheme::make_collector() const {
  return std::make_unique<CoverageCollector>(
      std::vector<std::size_t>(num_units(), 1), num_workers(), 0);
}

}  // namespace coupon::core
