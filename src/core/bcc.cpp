#include "core/bcc.hpp"

#include <algorithm>
#include <cmath>

#include "core/collectors.hpp"
#include "core/theory.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

data::Placement draw_placement(std::size_t num_workers,
                               const data::BatchPartition& partition,
                               bool seed_first_batches, stats::Rng& rng,
                               std::vector<std::size_t>& batch_choice) {
  const std::size_t batches = partition.num_batches();
  data::Placement placement(num_workers, partition.num_examples());
  batch_choice.resize(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    std::size_t b;
    if (seed_first_batches && i < batches) {
      b = i;
    } else {
      b = static_cast<std::size_t>(rng.uniform_int(batches));
    }
    batch_choice[i] = b;
    auto span = partition.indices(b);
    placement.worker(i).assign(span.begin(), span.end());
  }
  return placement;
}

}  // namespace

BccScheme::BccScheme(std::size_t num_workers, std::size_t num_units,
                     std::size_t load, bool seed_first_batches,
                     stats::Rng& rng)
    : Scheme(data::Placement()), partition_(num_units, load) {
  COUPON_ASSERT_MSG(num_workers >= partition_.num_batches(),
                    "need n >= ceil(m/r) workers to cover all batches");
  placement_ = draw_placement(num_workers, partition_, seed_first_batches,
                              rng, batch_choice_);
}

void BccScheme::encode_into(std::size_t worker,
                            const UnitGradientSource& source,
                            std::span<const double> w,
                            comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  encode_sum(batch_choice_[worker], placement_.worker(worker), source, w, out);
}

std::vector<std::int64_t> BccScheme::message_meta(std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return {static_cast<std::int64_t>(batch_choice_[worker])};
}

std::unique_ptr<Collector> BccScheme::make_collector() const {
  std::vector<std::size_t> batch_units(partition_.num_batches());
  for (std::size_t b = 0; b < batch_units.size(); ++b) {
    batch_units[b] = partition_.actual_size(b);
  }
  return std::make_unique<CoverageCollector>(std::move(batch_units),
                                             num_workers(), 0);
}

std::optional<double> BccScheme::expected_recovery_threshold() const {
  const auto b = static_cast<double>(partition_.num_batches());
  return b * theory::harmonic(partition_.num_batches());
}

std::size_t BccScheme::batch_of_worker(std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return batch_choice_[worker];
}

double BccScheme::coverage_failure_probability(std::size_t num_workers,
                                               std::size_t num_batches) {
  COUPON_ASSERT(num_batches > 0);
  // P(some batch uncovered) by inclusion-exclusion:
  //   sum_{k=1}^{B-1} (-1)^{k+1} C(B,k) (1 - k/B)^n.
  const double b = static_cast<double>(num_batches);
  const double n = static_cast<double>(num_workers);
  double prob = 0.0;
  double log_binom = 0.0;  // log C(B, k), updated incrementally
  for (std::size_t k = 1; k < num_batches; ++k) {
    log_binom += std::log(b - static_cast<double>(k) + 1.0) -
                 std::log(static_cast<double>(k));
    const double term =
        std::exp(log_binom + n * std::log1p(-static_cast<double>(k) / b));
    prob += (k % 2 == 1) ? term : -term;
  }
  return std::clamp(prob, 0.0, 1.0);
}

}  // namespace coupon::core
