#include "data/placement.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace coupon::data {

std::size_t Placement::computational_load() const {
  std::size_t r = 0;
  for (const auto& g : assignments_) {
    r = std::max(r, g.size());
  }
  return r;
}

std::size_t Placement::total_assigned() const {
  std::size_t total = 0;
  for (const auto& g : assignments_) {
    total += g.size();
  }
  return total;
}

bool Placement::covers_all_examples() const {
  std::vector<bool> seen(num_examples_, false);
  for (const auto& g : assignments_) {
    for (std::size_t j : g) {
      COUPON_ASSERT(j < num_examples_);
      seen[j] = true;
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

std::vector<std::size_t> Placement::example_multiplicities() const {
  std::vector<std::size_t> mult(num_examples_, 0);
  for (const auto& g : assignments_) {
    for (std::size_t j : g) {
      COUPON_ASSERT(j < num_examples_);
      ++mult[j];
    }
  }
  return mult;
}

Placement cyclic_windows(std::size_t num_workers, std::size_t load) {
  Placement placement(num_workers, num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    auto& g = placement.worker(i);
    g.reserve(load);
    for (std::size_t k = 0; k < load; ++k) {
      g.push_back((i + k) % num_workers);
    }
  }
  return placement;
}

}  // namespace coupon::data
