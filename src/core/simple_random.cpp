#include "core/simple_random.hpp"

#include <algorithm>

#include "core/collectors.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

data::Placement draw_placement(std::size_t num_units,
                               std::span<const std::size_t> loads,
                               stats::Rng& rng) {
  const std::size_t max_load =
      loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
  COUPON_ASSERT_MSG(max_load >= 1 && max_load <= num_units,
                    "load r must be in [1, m] (per-worker loads in [0, m], "
                    "at least one positive)");
  data::Placement placement(loads.size(), num_units);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    placement.worker(i) = rng.sample_without_replacement(num_units, loads[i]);
  }
  return placement;
}

}  // namespace

SimpleRandomScheme::SimpleRandomScheme(std::size_t num_workers,
                                       std::size_t num_units,
                                       std::size_t load, stats::Rng& rng)
    : SimpleRandomScheme(num_units, std::vector<std::size_t>(num_workers, load),
                         rng) {}

SimpleRandomScheme::SimpleRandomScheme(std::size_t num_units,
                                       std::span<const std::size_t> loads,
                                       stats::Rng& rng)
    : Scheme(draw_placement(num_units, loads, rng)) {}

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
