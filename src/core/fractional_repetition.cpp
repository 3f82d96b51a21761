#include "core/fractional_repetition.hpp"

#include "core/collectors.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

data::Placement fr_placement(std::size_t n, std::size_t r) {
  data::Placement placement(n, n);
  const std::size_t workers_per_group = n / r;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t block = i % workers_per_group;
    auto& g = placement.worker(i);
    g.reserve(r);
    for (std::size_t t = 0; t < r; ++t) {
      g.push_back(block * r + t);
    }
  }
  return placement;
}

}  // namespace

FractionalRepetitionScheme::FractionalRepetitionScheme(
    std::size_t num_workers, std::size_t load)
    : Scheme(data::Placement()), load_(load) {
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "FR load must satisfy 1 <= r <= n");
  COUPON_ASSERT_MSG(num_workers % load == 0,
                    "FR requires r | n, got n=" << num_workers
                                                << " r=" << load);
  placement_ = fr_placement(num_workers, load);
}

void FractionalRepetitionScheme::encode_into(std::size_t worker,
                                             const UnitGradientSource& source,
                                             std::span<const double> w,
                                             comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  encode_sum(block_of_worker(worker), placement_.worker(worker), source, w,
             out);
}

std::unique_ptr<Collector> FractionalRepetitionScheme::make_collector() const {
  return std::make_unique<CoverageCollector>(
      std::vector<std::size_t>(num_blocks(), load_), num_workers(), 0);
}

std::size_t FractionalRepetitionScheme::block_of_worker(
    std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return worker % (num_workers() / load_);
}

}  // namespace coupon::core
