#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace coupon::stats {

void OnlineStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::sem() const {
  if (count_ < 2) {
    return 0.0;
  }
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double quantile(std::vector<double> samples, double q) {
  COUPON_ASSERT(!samples.empty());
  COUPON_ASSERT(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    return samples[0];
  }
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double ks_distance(std::vector<double> samples,
                   const std::function<double(double)>& cdf) {
  COUPON_ASSERT(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
  }
  return d;
}

}  // namespace coupon::stats
