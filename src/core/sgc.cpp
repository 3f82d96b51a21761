#include "core/sgc.hpp"

#include <algorithm>
#include <numeric>

#include "core/collectors.hpp"
#include "linalg/vector_ops.hpp"
#include "util/assert.hpp"

namespace coupon::core {

namespace {

/// Stops at the wait quota k* = n - r + 1 and decodes the scaled partial
/// aggregate (n / (r k)) * sum of kept messages, summed in worker order.
class SgcCollector final : public WorkerSlotCollector {
 public:
  SgcCollector(std::size_t num_workers, std::size_t num_units,
               std::size_t load, std::size_t wait_quota)
      : WorkerSlotCollector(num_workers, wait_quota, 1),
        num_units_(num_units),
        load_(load) {}

  void decode_sum(std::span<double> out) const override {
    COUPON_ASSERT_MSG(ready(), "decode before the wait quota was met");
    scaled_aggregate(out);
  }

  bool supports_partial_decode() const override { return true; }

  /// The same unbiased estimator as decode_sum, valid at any k >= 1:
  /// reports all m units as covered because the estimate targets the FULL
  /// gradient sum (the engine's covered/m rescale must be the identity).
  std::size_t decode_partial_sum(std::span<double> out) const override {
    if (distinct_workers() == 0) {
      linalg::fill(out, 0.0);
      return 0;
    }
    scaled_aggregate(out);
    return num_units_;
  }

 private:
  void scaled_aggregate(std::span<double> out) const {
    COUPON_ASSERT(distinct_workers() >= 1);
    linalg::fill(out, 0.0);
    for (std::size_t i = 0; i < num_workers(); ++i) {
      if (!heard(i)) {
        continue;
      }
      const auto row = slot(i);
      COUPON_ASSERT(row.size() == out.size());
      linalg::axpy(1.0, row, out);
    }
    const double scale =
        static_cast<double>(num_workers()) /
        (static_cast<double>(load_) *
         static_cast<double>(distinct_workers()));
    linalg::scal(scale, out);
  }

  std::size_t num_units_;
  std::size_t load_;
};

/// Balanced random placement: r rounds, each a uniform random bijection
/// between units and workers, repaired so no worker receives the same
/// unit twice. Gives every unit exactly r replicas and every worker
/// exactly r units (pair-wise balanced redundancy).
data::Placement balanced_random(std::size_t n, std::size_t load,
                                stats::Rng& rng) {
  data::Placement placement(n, n);
  if (load == n) {
    // Full replication: the only balanced placement is "everyone holds
    // everything" — nothing random left to draw.
    for (std::size_t w = 0; w < n; ++w) {
      auto& g = placement.worker(w);
      g.resize(n);
      std::iota(g.begin(), g.end(), std::size_t{0});
    }
    return placement;
  }
  // held[w] tracks worker w's unit set for O(1) duplicate checks.
  std::vector<std::vector<bool>> held(n, std::vector<bool>(n, false));
  std::vector<std::size_t> perm(n);
  for (std::size_t round = 0; round < load; ++round) {
    // Repair within-worker duplicates by swapping assignments between
    // positions; a swap leaves both positions duplicate-free, so earlier
    // positions stay valid. When no swap partner exists (possible for
    // load close to n), redraw the whole round — for the loads this
    // library runs, a handful of redraws suffices overwhelmingly.
    bool round_ok = false;
    for (std::size_t attempt = 0; attempt < 64 && !round_ok; ++attempt) {
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      rng.shuffle(perm);
      round_ok = true;
      for (std::size_t w = 0; w < n && round_ok; ++w) {
        if (!held[w][perm[w]]) {
          continue;
        }
        bool swapped = false;
        for (std::size_t step = 1; step < n && !swapped; ++step) {
          const std::size_t t = (w + step) % n;
          if (!held[w][perm[t]] && !held[t][perm[w]]) {
            std::swap(perm[w], perm[t]);
            swapped = true;
          }
        }
        round_ok = swapped;
      }
    }
    COUPON_ASSERT_MSG(round_ok, "sgc placement repair failed to converge");
    for (std::size_t w = 0; w < n; ++w) {
      held[w][perm[w]] = true;
      placement.worker(w).push_back(perm[w]);
    }
  }
  for (std::size_t w = 0; w < n; ++w) {
    std::sort(placement.worker(w).begin(), placement.worker(w).end());
  }
  return placement;
}

}  // namespace

SgcScheme::SgcScheme(std::size_t num_workers, std::size_t load,
                     stats::Rng& rng)
    : Scheme(balanced_random(num_workers, load, rng)), load_(load) {
  COUPON_ASSERT_MSG(num_workers >= 1, "need at least one worker");
  COUPON_ASSERT_MSG(load >= 1 && load <= num_workers,
                    "load r must be in [1, n]");
}

void SgcScheme::encode_into(std::size_t worker,
                            const UnitGradientSource& source,
                            std::span<const double> w,
                            comm::Message& out) const {
  COUPON_ASSERT(worker < num_workers());
  COUPON_ASSERT(source.num_units() == num_units());
  encode_sum(worker, placement_.worker(worker), source, w, out);
}

std::vector<std::int64_t> SgcScheme::message_meta(std::size_t worker) const {
  COUPON_ASSERT(worker < num_workers());
  return {static_cast<std::int64_t>(worker)};
}

std::unique_ptr<Collector> SgcScheme::make_collector() const {
  return std::make_unique<SgcCollector>(num_workers(), num_units(), load_,
                                        num_workers() - load_ + 1);
}

}  // namespace coupon::core
