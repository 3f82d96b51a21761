#include "stats/rng.hpp"

#include <cmath>
#include <numbers>
#include <unordered_map>

namespace coupon::stats {

namespace {

inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  COUPON_ASSERT(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  COUPON_ASSERT(n > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  COUPON_ASSERT(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_int(span));
}

double Rng::normal() {
  // Box–Muller; draw u1 away from 0 to keep log() finite.
  double u1 = uniform();
  while (u1 <= 0.0) {
    u1 = uniform();
  }
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  COUPON_ASSERT(stddev >= 0.0);
  return mean + stddev * normal();
}

double Rng::exponential(double lambda) {
  COUPON_ASSERT(lambda > 0.0);
  double u = uniform();
  while (u <= 0.0) {
    u = uniform();
  }
  return -std::log(u) / lambda;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform() < p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  COUPON_ASSERT_MSG(k <= n, "cannot sample " << k << " from " << n);
  std::vector<std::size_t> out;
  out.reserve(k);
  if (k == 0) {
    return out;
  }
  if (k * 3 >= n) {
    // Dense path: full partial shuffle.
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) {
      all[i] = i;
    }
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(uniform_int(n - i));
      std::swap(all[i], all[j]);
      out.push_back(all[i]);
    }
    return out;
  }
  // Sparse path: virtual Fisher–Yates over an index map.
  std::unordered_map<std::size_t, std::size_t> remap;
  remap.reserve(k * 2);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_int(n - i));
    auto value_of = [&remap](std::size_t idx) {
      auto it = remap.find(idx);
      return it == remap.end() ? idx : it->second;
    };
    const std::size_t vi = value_of(i);
    const std::size_t vj = value_of(j);
    remap[j] = vi;
    out.push_back(vj);
  }
  return out;
}

}  // namespace coupon::stats
