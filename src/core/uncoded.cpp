#include "core/uncoded.hpp"

#include <numeric>

#include "core/collectors.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Wait-for-all collector: sums the worker slots in worker order.
class UncodedCollector final : public WorkerSlotCollector {
 public:
  /// `worker_units[i]` = |G_i|, for partial-coverage accounting.
  explicit UncodedCollector(std::vector<std::size_t> worker_units)
      : WorkerSlotCollector(worker_units.size(), worker_units.size(), 1),
        worker_units_(std::move(worker_units)) {}

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready(), "decode before all workers reported");
    decode_partial_sum(out);
  }

  bool supports_partial_decode() const override { return true; }

  std::size_t decode_partial_sum(std::span<double> out) const override {
    linalg::fill(out, 0.0);
    std::size_t units = 0;
    for (std::size_t i = 0; i < num_workers(); ++i) {
      if (!heard(i)) {
        continue;
      }
      const auto row = slot(i);
      COUPON_ASSERT(row.size() == out.size());
      linalg::axpy(1.0, row, out);
      units += worker_units_[i];
    }
    return units;
  }

 private:
  std::vector<std::size_t> worker_units_;
};

/// floor(m/n) or ceil(m/n) units per worker, the larger blocks first.
std::vector<std::size_t> even_loads(std::size_t num_workers,
                                    std::size_t num_units) {
  COUPON_ASSERT_MSG(num_workers >= 1 && num_units >= num_workers,
                    "uncoded requires m >= n so every worker has work");
  std::vector<std::size_t> loads(num_workers, num_units / num_workers);
  for (std::size_t i = 0; i < num_units % num_workers; ++i) {
    ++loads[i];
  }
  return loads;
}

data::Placement contiguous_blocks(std::span<const std::size_t> loads) {
  const std::size_t num_units =
      std::accumulate(loads.begin(), loads.end(), std::size_t{0});
  COUPON_ASSERT_MSG(num_units >= 1, "uncoded requires sum_i r_i >= 1");
  data::Placement placement(loads.size(), num_units);
  std::size_t next = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    auto& g = placement.worker(i);
    g.resize(loads[i]);
    std::iota(g.begin(), g.end(), next);
    next += loads[i];
  }
  return placement;
}

}  // namespace

UncodedScheme::UncodedScheme(std::size_t num_workers, std::size_t num_units)
    : UncodedScheme(even_loads(num_workers, num_units)) {}

UncodedScheme::UncodedScheme(std::span<const std::size_t> loads)
    : Scheme(contiguous_blocks(loads)) {}

void UncodedScheme::encode_into(std::size_t worker,
                                const UnitGradientSource& source,
                                std::span<const double> w,
                                comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  encode_sum(worker, placement_.worker(worker), source, w, out);
}

std::unique_ptr<Collector> UncodedScheme::make_collector() const {
  std::vector<std::size_t> worker_units(num_workers());
  for (std::size_t i = 0; i < num_workers(); ++i) {
    worker_units[i] = placement_.worker(i).size();
  }
  return std::make_unique<UncodedCollector>(std::move(worker_units));
}

}  // namespace coupon::core
