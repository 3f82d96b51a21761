#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation.
///
/// All randomness in the library flows through `stats::Rng` (xoshiro256**
/// seeded via splitmix64). We implement our own samplers (uniform, normal,
/// exponential, Bernoulli) instead of using `std::` distributions because
/// the standard leaves distribution algorithms implementation-defined;
/// with our own samplers, a seed fully determines every experiment on any
/// platform, which the tests and the benchmark harnesses rely on.

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace coupon::stats {

/// xoshiro256** 1.0 generator (Blackman & Vigna), seeded with splitmix64.
///
/// Passes BigCrush; period 2^256 − 1.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state by iterating splitmix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (no state caching: one fresh pair
  /// member per call keeps replay independent of call sites).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with rate lambda (mean 1/lambda). Requires lambda > 0.
  double exponential(double lambda);

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly at random, in
  /// unspecified order. Requires k <= n. O(k) expected time via a partial
  /// Fisher–Yates over a sparse map for k << n, O(n) otherwise.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  std::uint64_t state_[4];
};

}  // namespace coupon::stats
